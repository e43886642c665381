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
// benchmarkable (BenchmarkExchangeStrategies).
//
// Both strategies accept an optional faultsim.Fabric: any message — a
// region reduce, a directory push or pull batch — may be dropped by the
// injected schedule, in which case the sender retries with capped
// exponential backoff on the virtual clock (Policy). A message dropped
// more than Policy.MaxRetries times fails the exchange with
// ErrExchangeFailed. With a nil Fabric the fault layer is a true no-op:
// byte volumes and results are identical to the pre-fault implementation.
package exchange

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"paragon/internal/faultsim"
	"paragon/internal/obs"
)

// ErrExchangeFailed marks an exchange abandoned after a message was
// dropped more than Policy.MaxRetries times. Callers distinguish it from
// protocol violations (conflicting updates) with errors.Is.
var ErrExchangeFailed = errors.New("message dropped beyond retry budget")

// DeliveryError is the detailed form of ErrExchangeFailed the Directory
// strategy returns: it names every server whose message exhausted the
// retry budget in the failed phase, in ascending rank order regardless
// of goroutine interleaving. Callers attributing a failed
// directory-epoch publish (internal/dir) unwrap it with errors.As; it
// still satisfies errors.Is(err, ErrExchangeFailed).
type DeliveryError struct {
	// Phase is the exchange phase that failed: "push" or "pull".
	Phase string
	// Servers holds the ranks whose delivery was abandoned beyond the
	// retry budget, sorted ascending (deterministic lowest-rank-first).
	Servers []int
}

// Error implements error.
func (e *DeliveryError) Error() string {
	return fmt.Sprintf("exchange: %s delivery abandoned for servers %v: %v", e.Phase, e.Servers, ErrExchangeFailed)
}

// Unwrap makes errors.Is(err, ErrExchangeFailed) hold.
func (e *DeliveryError) Unwrap() error { return ErrExchangeFailed }

// exchangeMetrics resolves the registry handles both strategies share.
// The zero value (nil registry) makes every operation a no-op.
type exchangeMetrics struct {
	bytes   *obs.Counter
	retries *obs.Counter
	aborts  *obs.Counter
}

func newExchangeMetrics(r *obs.Registry) exchangeMetrics {
	if r == nil {
		return exchangeMetrics{}
	}
	return exchangeMetrics{
		bytes:   r.Counter("exchange_bytes_total", "location-exchange traffic, lost attempts included"),
		retries: r.Counter("exchange_retries_total", "region reduces retransmitted after a drop"),
		aborts:  r.Counter("exchange_aborts_total", "region reduces abandoned beyond the retry budget"),
	}
}

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
	// Fabric optionally injects message-drop faults (nil = fault-free).
	Fabric faultsim.Fabric
	// Policy bounds retries and backoff; the zero value is DefaultPolicy.
	Policy faultsim.Policy
	// Clock, when set, absorbs the virtual backoff ticks of retries.
	Clock *faultsim.Clock
	// Metrics, when set, accumulates exchange_* counters. The directory
	// delivers from per-server goroutines, so it offers only order-free
	// metrics, no trace stream (Region is the traced strategy).
	Metrics *obs.Registry
}

// Name implements Strategy.
func (Directory) Name() string { return "distributed data directory" }

// Propagate implements Strategy: push updates to hash-owned shards, then
// pull every needed location. Conflicting shard updates (two servers
// moving the same vertex to different partitions — a protocol violation
// PARAGON's disjoint grouping prevents) fail with a deterministic
// conflict error, like Region. Under a Fabric, a server's push or pull
// batch may be dropped and is retried per the Policy.
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
	pol := d.Policy.Normalized()
	mx := newExchangeMetrics(d.Metrics)
	epoch := 0
	if d.Fabric != nil {
		epoch = d.Fabric.NextEpoch()
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
	// Delivery failures land in per-server arena slots (the sharedwrite
	// contract): each goroutine writes only its own index, and
	// deliveryError reduces the slice deterministically afterwards.
	pushFailed := make([]bool, len(servers))
	// Phase 1: every server pushes its updates to the owning shards. The
	// push batch is one message: a dropped batch never reaches a shard
	// and is retried whole (idempotent — it re-writes the same values).
	var wg sync.WaitGroup
	for si, s := range servers {
		wg.Add(1)
		go func(si int, s *Server) {
			defer wg.Done()
			batch := int64(len(s.Updates)) * updateBytes
			bytes, retries, ok := faultsim.Deliver(d.Fabric, pol, d.Clock, epoch, si, batch, nil)
			volMu.Lock()
			volume += bytes
			volMu.Unlock()
			mx.bytes.Add(bytes)
			mx.retries.Add(int64(retries))
			if !ok {
				mx.aborts.Inc()
				pushFailed[si] = true
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
	if err := deliveryError("push", servers, pushFailed); err != nil {
		return volume, err
	}
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
	// Phase 2: every server pulls the locations it needs; the pull batch
	// (requests + replies) is one retryable message.
	pullFailed := make([]bool, len(servers))
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
			bytes, retries, ok := faultsim.Deliver(d.Fabric, pol, d.Clock, epoch, len(servers)+si, batch, nil)
			volMu.Lock()
			volume += bytes
			volMu.Unlock()
			mx.bytes.Add(bytes)
			mx.retries.Add(int64(retries))
			if !ok {
				mx.aborts.Inc()
				pullFailed[si] = true
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
	if err := deliveryError("pull", servers, pullFailed); err != nil {
		return volume, err
	}
	// The directory only refreshes pulled vertices; apply each server's
	// own updates locally too (free — they are local writes).
	for _, s := range servers {
		for v, loc := range s.Updates {
			s.Locations[v] = loc
		}
	}
	return volume, nil
}

// deliveryError reduces a per-server failure arena (false = delivered)
// into the deterministic verdict of a phase: nil when every delivery
// landed, otherwise a DeliveryError naming every exhausted server in
// ascending rank order. The set — not a single representative — is what
// makes a failed directory-epoch publish attributable: the caller sees
// exactly which servers' batches died, however the goroutines
// interleaved.
func deliveryError(phase string, servers []*Server, dropped []bool) error {
	var failed []int
	for si, d := range dropped {
		if d {
			failed = append(failed, servers[si].ID)
		}
	}
	if len(failed) == 0 {
		return nil
	}
	sort.Ints(failed)
	return &DeliveryError{Phase: phase, Servers: failed}
}

// Region is the paper's adopted chunked-array strategy.
type Region struct {
	// Size is the region length in vertex ids; 0 means min(2^26, |V|).
	Size int64
	// Fabric optionally injects reduce-drop faults (nil = fault-free).
	Fabric faultsim.Fabric
	// Policy bounds retries and backoff; the zero value is DefaultPolicy.
	Policy faultsim.Policy
	// Clock, when set, absorbs the virtual backoff ticks of retries.
	Clock *faultsim.Clock
	// Trace, when set, receives region_sent / region_retry / region_abort
	// events, emitted from the (serial) coordinator loop with the epoch
	// as the Round coordinate.
	Trace *obs.Tracer
	// Metrics, when set, accumulates exchange_* counters.
	Metrics *obs.Registry
}

// Name implements Strategy.
func (Region) Name() string { return "region-chunked array exchange" }

// Propagate implements Strategy: for each region, reduce all servers'
// updates into a merged location array and broadcast it back. Under a
// Fabric, a region's reduce may be dropped: the whole region reduce is
// retried with capped backoff (its bytes were spent either way), and a
// region dropped beyond Policy.MaxRetries fails with ErrExchangeFailed.
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
	pol := r.Policy.Normalized()
	mx := newExchangeMetrics(r.Metrics)
	epoch := 0
	if r.Fabric != nil {
		epoch = r.Fabric.NextEpoch()
	}
	var volume int64
	region := -1
	for lo := int64(0); lo < n; lo += size {
		region++
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
		// region (the paper's O(|V|) total). A dropped reduce spent its
		// bytes anyway and is retried after a backoff; a region dropped
		// beyond the retry budget aborts before any server adopts it, so
		// views stay exchange-atomic per region.
		var onRetry func(attempt int, backoff int64)
		if r.Trace != nil {
			reg := region
			onRetry = func(attempt int, backoff int64) {
				r.Trace.Emit(obs.Event{Kind: obs.KindRegionRetry, Round: int32(epoch),
					A: int32(reg), B: int32(attempt), N: backoff})
			}
		}
		bytes, retries, ok := faultsim.Deliver(r.Fabric, pol, r.Clock, epoch, region, (hi-lo)*4, onRetry)
		volume += bytes
		mx.bytes.Add(bytes)
		mx.retries.Add(int64(retries))
		if !ok {
			mx.aborts.Inc()
			r.Trace.Emit(obs.Event{Kind: obs.KindRegionAbort, Round: int32(epoch),
				A: int32(region), B: int32(retries + 1)})
			return volume, fmt.Errorf("exchange: region %d reduce dropped %d times: %w", region, retries+1, ErrExchangeFailed)
		}
		r.Trace.Emit(obs.Event{Kind: obs.KindRegionSent, Round: int32(epoch),
			A: int32(region), N: bytes, M: int64(retries)})
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
