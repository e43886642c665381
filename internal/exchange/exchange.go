// Package exchange implements the two strategies §5 discusses for
// propagating decomposition changes among PARAGON's group servers during
// shuffle refinement:
//
//   - Directory: a Zoltan-style distributed data directory. Every vertex
//     has a home shard (hash-based); group servers push their location
//     updates to the shards and then pull the locations of every vertex
//     their vertices neighbor. The paper found this "very inefficient for
//     really big graphs in terms of both memory footprint and execution
//     time", costing O(|V|+|E|) communication.
//
//   - Region: the paper's adopted variant — the global vertex id space is
//     chunked into equal regions of min(2^26, |V|) ids, and the locations
//     of one region are exchanged per round with a single reduce,
//     costing O(|V|) communication and bounding per-server memory to one
//     region.
//
// Both strategies are implemented over real goroutine servers and report
// the simulated wire volume, so the paper's claim is directly
// benchmarkable (BenchmarkExchangeStrategies). They model a fault-free
// exchange: the refinement driver's own region exchange
// (paragon.Refine) is the one that runs under a fault fabric, with
// retries, backoff and trace events.
package exchange

import (
	"fmt"
	"sort"
	"sync"
)

// Server is one group server's view during a shuffle exchange.
type Server struct {
	ID int
	// Locations is this server's (possibly stale) view of every vertex's
	// partition. All servers' views have the same length.
	Locations []int32
	// Updates are the ownership changes this server made during its
	// group refinement (vertex -> new partition). Servers own disjoint
	// partitions, so no two servers update the same vertex.
	Updates map[int32]int32
	// Needs are the vertices whose up-to-date location this server needs
	// (the neighbors of its vertices); only the Directory strategy uses
	// it — the Region strategy refreshes everything.
	Needs []int32
}

// Strategy propagates all updates so that every server's Locations view
// becomes identical and up to date. It returns the simulated
// communication volume in bytes.
type Strategy interface {
	Name() string
	Propagate(servers []*Server) (int64, error)
}

// wire-size constants: a location update is (vertex id, partition) = 8
// bytes; a pull request is a 4-byte id, its reply 4 bytes.
const (
	updateBytes  = 8
	requestBytes = 4
	replyBytes   = 4
)

// Directory is the Zoltan-style distributed data directory strategy.
// Shards defaults to the number of servers.
type Directory struct {
	Shards int
}

// Name implements Strategy.
func (Directory) Name() string { return "distributed data directory" }

// Propagate implements Strategy: push updates to hash-owned shards, then
// pull every needed location. Conflicting shard updates (two servers
// moving the same vertex to different partitions — a protocol violation
// PARAGON's disjoint grouping prevents) fail with a deterministic
// conflict error, like Region.
func (d Directory) Propagate(servers []*Server) (int64, error) {
	if len(servers) == 0 {
		return 0, fmt.Errorf("exchange: no servers")
	}
	shards := d.Shards
	if shards <= 0 {
		shards = len(servers)
	}
	n := len(servers[0].Locations)
	for _, s := range servers {
		if len(s.Locations) != n {
			return 0, fmt.Errorf("exchange: server %d has %d locations, want %d", s.ID, len(s.Locations), n)
		}
	}
	// Shard state: authoritative locations for the vertices it owns,
	// plus the vertices whose pushes conflicted.
	type shard struct {
		mu        sync.Mutex
		locs      map[int32]int32
		conflicts []int32 // vertices with disagreeing pushes; dedup at report
	}
	shardOf := func(v int32) int { return int(uint32(v)*2654435761) % shards }
	dir := make([]*shard, shards)
	for i := range dir {
		dir[i] = &shard{locs: make(map[int32]int32)}
	}
	var volume int64
	var volMu sync.Mutex
	// Phase 1: every server pushes its updates to the owning shards.
	var wg sync.WaitGroup
	for _, s := range servers {
		wg.Add(1)
		go func(s *Server) {
			defer wg.Done()
			volMu.Lock()
			volume += int64(len(s.Updates)) * updateBytes
			volMu.Unlock()
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
		}(s)
	}
	wg.Wait()
	// Surface conflicts deterministically: lowest vertex id wins the
	// error message regardless of goroutine interleaving.
	var conflicted []int32
	for _, sh := range dir {
		conflicted = append(conflicted, sh.conflicts...)
	}
	if len(conflicted) > 0 {
		sort.Slice(conflicted, func(i, j int) bool { return conflicted[i] < conflicted[j] })
		uniq := conflicted[:1]
		for _, v := range conflicted[1:] {
			if v != uniq[len(uniq)-1] {
				uniq = append(uniq, v)
			}
		}
		return volume, fmt.Errorf("exchange: conflicting updates for vertex %d (%d conflicting vertices)", uniq[0], len(uniq))
	}
	// Phase 2: every server pulls the locations it needs, one request and
	// one reply per needed vertex.
	for _, s := range servers {
		wg.Add(1)
		go func(s *Server) {
			defer wg.Done()
			var batch int64
			for _, v := range s.Needs {
				if v < 0 || int(v) >= n {
					continue
				}
				batch += requestBytes + replyBytes
				sh := dir[shardOf(v)]
				sh.mu.Lock()
				loc, ok := sh.locs[v]
				sh.mu.Unlock()
				if ok {
					s.Locations[v] = loc
				}
			}
			volMu.Lock()
			volume += batch
			volMu.Unlock()
		}(s)
	}
	wg.Wait()
	// The directory only refreshes pulled vertices; apply each server's
	// own updates locally too (free — they are local writes).
	for _, s := range servers {
		for v, loc := range s.Updates {
			s.Locations[v] = loc
		}
	}
	return volume, nil
}

// Region is the paper's adopted chunked-array strategy.
type Region struct {
	// Size is the region length in vertex ids; 0 means min(2^26, |V|).
	Size int64
}

// Name implements Strategy.
func (Region) Name() string { return "region-chunked array exchange" }

// Propagate implements Strategy: for each region, reduce all servers'
// updates into a merged location array and broadcast it back.
func (r Region) Propagate(servers []*Server) (int64, error) {
	if len(servers) == 0 {
		return 0, fmt.Errorf("exchange: no servers")
	}
	n := int64(len(servers[0].Locations))
	for _, s := range servers {
		if int64(len(s.Locations)) != n {
			return 0, fmt.Errorf("exchange: server %d has %d locations, want %d", s.ID, len(s.Locations), n)
		}
	}
	size := r.Size
	if size <= 0 {
		size = 1 << 26
	}
	if size > n && n > 0 {
		size = n
	}
	var volume int64
	for lo := int64(0); lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		// Reduce: merge every server's updates for this region. Updates
		// are disjoint across servers by PARAGON's construction; detect
		// violations.
		merged := make([]int32, hi-lo)
		written := make([]bool, hi-lo)
		for i := range merged {
			merged[i] = -1
		}
		// Conflicting updates abort mid-iteration, so which conflict is
		// reported depends on map order; the success path only performs
		// per-key writes and is order-independent.
		for _, s := range servers {
			//lint:ignore maprange early exit fires only on a protocol violation PARAGON's disjoint grouping rules out
			for v, loc := range s.Updates {
				if int64(v) < lo || int64(v) >= hi {
					continue
				}
				i := int64(v) - lo
				if written[i] && merged[i] != loc {
					return volume, fmt.Errorf("exchange: conflicting updates for vertex %d", v)
				}
				merged[i] = loc
				written[i] = true
			}
		}
		// Fill unchanged slots from the first server's view (all views
		// agree on unchanged vertices).
		base := servers[0].Locations[lo:hi]
		for i := range merged {
			if !written[i] {
				merged[i] = base[i]
			}
		}
		// The reduce wire cost is one 4-byte location per vertex of the
		// region (the paper's O(|V|) total).
		volume += (hi - lo) * 4
		// Broadcast: every server adopts the merged region.
		var wg sync.WaitGroup
		for _, s := range servers {
			wg.Add(1)
			go func(s *Server, lo, hi int64) {
				defer wg.Done()
				copy(s.Locations[lo:hi], merged)
			}(s, lo, hi)
		}
		wg.Wait()
	}
	return volume, nil
}

// Consistent reports whether all servers hold identical location views.
func Consistent(servers []*Server) bool {
	if len(servers) < 2 {
		return true
	}
	ref := servers[0].Locations
	for _, s := range servers[1:] {
		if len(s.Locations) != len(ref) {
			return false
		}
		for i := range ref {
			if s.Locations[i] != ref[i] {
				return false
			}
		}
	}
	return true
}
