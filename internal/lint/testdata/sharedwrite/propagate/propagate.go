// Package propagate re-creates a bug sharedwrite caught in the tree:
// exchange.Propagate's push and pull goroutines appended their delivery
// failures to one captured slice under a mutex, so the slice filled in
// goroutine completion order. The fix gives every server its own error
// slot and reduces the slots in server order. The body below is the one
// before that fix, without the fault-injection fabric and the metrics;
// the two shard writes carry the suppressions they had then and still
// have.
package propagate

import (
	"fmt"
	"sort"
	"sync"
)

const (
	updateBytes  = 8
	requestBytes = 4
	replyBytes   = 8
)

type Server struct {
	ID        int
	Locations []int32
	Updates   map[int32]int32
	Needs     []int32
}

type Directory struct{ Shards int }

// deliver stands in for the retrying message layer: it reports the
// bytes sent, the retries spent and the final failure, if any.
func deliver(attempt int, batch int64) (int64, int, error) {
	if batch < 0 {
		return 0, attempt, fmt.Errorf("negative batch")
	}
	return batch, 0, nil
}

// Propagate runs the two-phase shard directory exchange: every server
// pushes its updates to the owning shards, then pulls what it needs.
func (d Directory) Propagate(servers []*Server) (int64, error) {
	if len(servers) == 0 {
		return 0, fmt.Errorf("exchange: no servers")
	}
	shards := d.Shards
	if shards <= 0 {
		shards = len(servers)
	}
	n := len(servers[0].Locations)
	type shard struct {
		mu        sync.Mutex
		locs      map[int32]int32
		conflicts []int32
	}
	shardOf := func(v int32) int { return int(uint32(v)*2654435761) % shards }
	dir := make([]*shard, shards)
	for i := range dir {
		dir[i] = &shard{locs: make(map[int32]int32)}
	}
	var volume int64
	var volMu sync.Mutex
	var errMu sync.Mutex
	var dropErrs []error
	var wg sync.WaitGroup
	for si, s := range servers {
		wg.Add(1)
		go func(si int, s *Server) {
			defer wg.Done()
			batch := int64(len(s.Updates)) * updateBytes
			bytes, _, err := deliver(si, batch)
			volMu.Lock()
			volume += bytes
			volMu.Unlock()
			if err != nil {
				errMu.Lock()
				dropErrs = append(dropErrs, fmt.Errorf("exchange: push from server %d: %w", s.ID, err))
				errMu.Unlock()
				return
			}
			for v, loc := range s.Updates {
				sh := dir[shardOf(v)]
				sh.mu.Lock()
				if old, dup := sh.locs[v]; dup && old != loc {
					//lint:ignore sharedwrite append order is interleaving-dependent but the conflict set is sorted and deduplicated before reporting
					sh.conflicts = append(sh.conflicts, v)
				}
				//lint:ignore sharedwrite per-key last-write-wins under the shard mutex; disagreeing writers are caught by the conflict check above
				sh.locs[v] = loc
				sh.mu.Unlock()
			}
		}(si, s)
	}
	wg.Wait()
	if err := firstDeliveryError(dropErrs); err != nil {
		return volume, err
	}
	var conflicted []int32
	for _, sh := range dir {
		conflicted = append(conflicted, sh.conflicts...)
	}
	if len(conflicted) > 0 {
		sort.Slice(conflicted, func(i, j int) bool { return conflicted[i] < conflicted[j] })
		return volume, fmt.Errorf("exchange: conflicting updates for vertex %d", conflicted[0])
	}
	for si, s := range servers {
		wg.Add(1)
		go func(si int, s *Server) {
			defer wg.Done()
			var batch int64
			for _, v := range s.Needs {
				if v < 0 || int(v) >= n {
					continue
				}
				batch += requestBytes + replyBytes
			}
			bytes, _, err := deliver(len(servers)+si, batch)
			volMu.Lock()
			volume += bytes
			volMu.Unlock()
			if err != nil {
				errMu.Lock()
				dropErrs = append(dropErrs, fmt.Errorf("exchange: pull by server %d: %w", s.ID, err))
				errMu.Unlock()
				return
			}
			for _, v := range s.Needs {
				if v < 0 || int(v) >= n {
					continue
				}
				sh := dir[shardOf(v)]
				sh.mu.Lock()
				loc, ok := sh.locs[v]
				sh.mu.Unlock()
				if ok {
					s.Locations[v] = loc
				}
			}
		}(si, s)
	}
	wg.Wait()
	if err := firstDeliveryError(dropErrs); err != nil {
		return volume, err
	}
	return volume, nil
}

// firstDeliveryError picks the lexicographically first message, so the
// reported error does not depend on which failure was appended first.
func firstDeliveryError(errs []error) error {
	if len(errs) == 0 {
		return nil
	}
	best := errs[0]
	for _, e := range errs[1:] {
		if e.Error() < best.Error() {
			best = e
		}
	}
	return best
}
