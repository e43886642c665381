// Package obs is the determinism-safe observability layer of the
// pipeline: a structured event tracer and a metrics registry that the
// refinement driver (internal/paragon), the exchange strategies
// (internal/exchange), the migration service (internal/migrate), and the
// fault injector (internal/faultsim) thread their per-round, per-wave,
// and per-message telemetry through, plus sinks (JSONL trace files,
// Prometheus-style text exposition, a human per-phase summary table).
//
// The design constraint that shapes everything here is the determinism
// contract of DESIGN.md §10: a seeded run must stay bit-identical, and
// that now includes its trace and metrics output. Three rules follow:
//
//   - No wall clock. Events are stamped with the faultsim virtual tick
//     clock (injected as a plain func() int64) plus a monotonic sequence
//     number. obs is part of paragonlint's wallclock kernel set; if a
//     sink ever wants wall-clock context it must live with the caller,
//     outside the serialized stream, or the Workers=1 and Workers=8
//     trace files stop comparing equal.
//
//   - Worker emission is staged, not direct. Code running on a worker
//     pool appends events to a per-worker Buf and the coordinator
//     commits the staged spans in task order at the next barrier —
//     the same discipline as the move arenas of
//     internal/paragon/schedule.go. Direct Tracer.Emit is reserved for
//     coordinator (single-goroutine) call sites.
//
//   - Metrics are order-free. Counters and histograms accumulate int64
//     quantities with atomic adds — associative, so any interleaving of
//     worker increments yields the same totals. Gauges carry float64
//     values but must only be Set from coordinator call sites with
//     deterministically computed values (e.g. a fixed-order float
//     reduction), never accumulated concurrently.
//
// Everything is stdlib-only and allocation-conscious: a nil *Tracer or
// nil *Registry disables the layer entirely (Emit, SetClock, CommitStaged
// and every metric operation are no-ops on a nil receiver, so emission
// sites need no guard), and an enabled tracer writes into a preallocated
// ring.
package obs

import (
	"sync"
)

// Kind enumerates the typed trace events. The coordinate fields of Event
// (Round, A, B, N, M, X) are interpreted per kind as documented on each
// constant.
type Kind uint8

const (
	// KindRefineStart opens a Refine call: A = master server (Eq. 11),
	// B = effective DRP, N = partition count k.
	KindRefineStart Kind = iota
	// KindRoundStart opens one refinement round: N = group count.
	KindRoundStart
	// KindGroupCrashed is a fault fate: group A's server crashed in
	// Round; its whole tournament is discarded.
	KindGroupCrashed
	// KindGroupStraggler is a fault fate: group A's server was delayed
	// N virtual ticks past the round timeout and its outcome dropped.
	KindGroupStraggler
	// KindWaveScheduled announces tournament wave A of Round with N
	// partition-disjoint pairs about to execute.
	KindWaveScheduled
	// KindPairRefined reports one refined partition pair (A, B): N kept
	// moves, X realized Eq. 5 gain. Emitted from worker goroutines via
	// per-worker Bufs, committed in task order at the wave barrier.
	KindPairRefined
	// KindWaveCommitted closes wave A of Round: N moves entered the
	// master at the barrier.
	KindWaveCommitted
	// KindShipAccounted reports the round's boundary-shipping volume:
	// N vertices, M accompanying half-edges.
	KindShipAccounted
	// KindRoundEnd closes a round: N kept moves, X realized gain.
	KindRoundEnd
	// KindRegionSent reports one location-exchange region reduce that
	// was ultimately delivered: region A of Round, N bytes spent
	// (including lost attempts), M retransmissions.
	KindRegionSent
	// KindRegionRetry reports one dropped region reduce being retried:
	// region A of Round, attempt B, N backoff ticks.
	KindRegionRetry
	// KindRegionAbort reports region A of Round dropped beyond the retry
	// budget after B attempts; shuffle refinement ends early.
	KindRegionAbort
	// KindMigrationPlan opens a migration: N planned moves.
	KindMigrationPlan
	// KindMigrationCommit closes a committed migration: N moved
	// vertices, M payload bytes.
	KindMigrationCommit
	// KindMigrationRollback closes an aborted migration: N vertices
	// restored to their senders, A the plan index of the abort (-1 for a
	// protocol violation).
	KindMigrationRollback
	// KindMigrationSweep reports the final migration bookkeeping of a
	// Refine call: N vertices whose owner changed, X Eq. 3 cost.
	KindMigrationSweep
	// KindRefineEnd closes a Refine call: N total kept moves, X total
	// realized gain.
	KindRefineEnd
	// KindEpochPrepare reports a directory epoch publish whose prepare
	// record reached the journal: N = target epoch, M = delta moves.
	KindEpochPrepare
	// KindEpochCommit reports a committed directory epoch flip: N = the
	// now-live epoch, M = delta moves applied.
	KindEpochCommit
	// KindEpochAbort reports a failed directory epoch publish: N = the
	// epoch that was being published, A = the phase that failed
	// (0 prepare append, 1 publisher crash, 2 commit append), B = write
	// attempts spent. The previous epoch stays live.
	KindEpochAbort
	// KindDirRecovered reports a directory rebuilt from its journal:
	// N = last committed epoch recovered, M = torn tail bytes discarded.
	KindDirRecovered
	// KindPortfolioStart opens a portfolio refinement: N = member count,
	// M = combine width (top members the combine operator overlays).
	KindPortfolioStart
	// KindMemberForfeit reports a portfolio member excluded by the fault
	// fabric before running: A = member id.
	KindMemberForfeit
	// KindMemberRefined reports a completed portfolio member: A = member
	// id, N = kept moves, X = the member's Eq. 2+3 selection cost.
	KindMemberRefined
	// KindPortfolioCombine reports the combine operator's overlay pass:
	// N = disagreement vertices between the two best members, M = moves
	// kept by the boundary-restricted rounds, A = pair refinements they
	// ran, B = the wave barriers they ran in, X = the combined cost.
	KindPortfolioCombine
	// KindPortfolioSelect closes a portfolio refinement: A = winning
	// member id (-1 if every member forfeited), B = 1 if the combined
	// decomposition beat the winner (0 otherwise), X = the selected cost.
	KindPortfolioSelect
	// KindIngestBatch closes one ingested batch of the streaming
	// session: Round = batch sequence, N = churn ops applied, M = vertex
	// arrivals placed, A = active vertex count, X = live Eq. 4 skewness.
	KindIngestBatch
	// KindEpochTrigger reports the trigger decision that launched a
	// session refinement epoch: Round = batch sequence, A = reason code
	// (0 skew, 1 churn, 2 staleness), X = the offending metric value.
	KindEpochTrigger
	// KindEpochLaunch opens a session refinement epoch: Round = batch
	// sequence at launch, A = epoch launch index, N = snapshot edges.
	KindEpochLaunch
	// KindEpochMerge closes a session refinement epoch at its join
	// barrier: Round = batch sequence at join, A = 1 committed / 0
	// aborted, N = the directory epoch now live, M = moved vertices,
	// X = the live Eq. 2 comm cost after the merge (0 on abort).
	KindEpochMerge

	numKinds // sentinel; keep last
)

var kindNames = [numKinds]string{
	KindRefineStart:       "refine_start",
	KindRoundStart:        "round_start",
	KindGroupCrashed:      "group_crashed",
	KindGroupStraggler:    "group_straggler",
	KindWaveScheduled:     "wave_scheduled",
	KindPairRefined:       "pair_refined",
	KindWaveCommitted:     "wave_committed",
	KindShipAccounted:     "ship_accounted",
	KindRoundEnd:          "round_end",
	KindRegionSent:        "region_sent",
	KindRegionRetry:       "region_retry",
	KindRegionAbort:       "region_abort",
	KindMigrationPlan:     "migration_plan",
	KindMigrationCommit:   "migration_commit",
	KindMigrationRollback: "migration_rollback",
	KindMigrationSweep:    "migration_sweep",
	KindRefineEnd:         "refine_end",
	KindEpochPrepare:      "epoch_prepare",
	KindEpochCommit:       "epoch_commit",
	KindEpochAbort:        "epoch_abort",
	KindDirRecovered:      "dir_recovered",
	KindPortfolioStart:    "portfolio_start",
	KindMemberForfeit:     "member_forfeit",
	KindMemberRefined:     "member_refined",
	KindPortfolioCombine:  "portfolio_combine",
	KindPortfolioSelect:   "portfolio_select",
	KindIngestBatch:       "ingest_batch",
	KindEpochTrigger:      "epoch_trigger",
	KindEpochLaunch:       "epoch_launch",
	KindEpochMerge:        "epoch_merge",
}

// String returns the snake_case event name used by the JSONL sink.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one trace record. Seq and Tick are assigned by the Tracer at
// commit time; the remaining fields are generic coordinates whose
// meaning is fixed per Kind (see the Kind constants). Round is -1 for
// run-scoped events that belong to no refinement round.
type Event struct {
	Seq   uint64  // monotonic commit order, dense from 0
	Tick  int64   // virtual clock at commit (never wall clock)
	Kind  Kind    //
	Round int32   // refinement round / epoch, -1 = run scope
	A     int32   // per-kind coordinate (group, wave, region, pair i, …)
	B     int32   // per-kind coordinate (pair j, attempt, …)
	N     int64   // per-kind count (moves, bytes, ticks, …)
	M     int64   // per-kind secondary count (edges, retries, …)
	X     float64 // per-kind measure (gain, cost)
}

// Tracer is a bounded ring of Events. When the ring fills, the oldest
// events are overwritten (and counted in Dropped) — drop-oldest is
// itself deterministic, because which events drop depends only on the
// emission sequence, never on timing.
//
// Concurrency: Emit/CommitStaged are safe for concurrent use, but
// sequence numbers then reflect interleaving — the pipeline only ever
// emits from the coordinator goroutine and routes worker emission
// through Bufs, which is what keeps the stream bit-identical across
// worker counts.
type Tracer struct {
	mu      sync.Mutex
	clock   func() int64
	ring    []Event
	head    int // index of the oldest event
	n       int // live events in the ring
	seq     uint64
	dropped uint64
}

// DefaultTracerCapacity is the ring size NewTracer uses for capacity <= 0.
const DefaultTracerCapacity = 1 << 16

// NewTracer returns a tracer whose ring holds capacity events
// (DefaultTracerCapacity if capacity <= 0). The virtual clock defaults
// to a constant 0 until SetClock installs a source.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTracerCapacity
	}
	return &Tracer{ring: make([]Event, 0, capacity)}
}

// SetClock installs the virtual tick source (typically
// (*faultsim.Clock).Now). A nil source stamps tick 0.
func (t *Tracer) SetClock(now func() int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.clock = now
	t.mu.Unlock()
}

// Emit stamps e with the current tick and the next sequence number and
// appends it to the ring. Coordinator call sites only; worker-pool code
// stages into a Buf instead. A nil tracer drops the event.
func (t *Tracer) Emit(e Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.emitLocked(e)
	t.mu.Unlock()
}

func (t *Tracer) emitLocked(e Event) {
	e.Seq = t.seq
	t.seq++
	e.Tick = 0
	if t.clock != nil {
		e.Tick = t.clock()
	}
	if t.n < cap(t.ring) {
		t.ring = append(t.ring, e)
		t.n++
		return
	}
	// Ring full: overwrite the oldest.
	t.ring[t.head] = e
	t.head++
	if t.head == cap(t.ring) {
		t.head = 0
	}
	t.dropped++
}

// Buf is a per-worker staging buffer: worker-pool code appends events
// here (no locks, no stamps) and the coordinator commits contiguous
// spans in task order at the next barrier via CommitStaged — mirroring
// the per-worker move arenas of the pair scheduler. A Buf must not be
// shared between goroutines.
type Buf struct {
	ev []Event
}

// Emit stages one event. Seq/Tick are assigned later, at commit.
func (b *Buf) Emit(e Event) { b.ev = append(b.ev, e) }

// Mark returns the current staging position; a task's span is
// [Mark-before, Mark-after).
func (b *Buf) Mark() int { return len(b.ev) }

// Reset empties the buffer, keeping its backing storage.
func (b *Buf) Reset() { b.ev = b.ev[:0] }

// CommitStaged stamps and appends the staged span [lo, hi) of b, in
// staging order. The caller sequences CommitStaged calls in task order,
// which is what makes the merged stream independent of which worker
// staged which span.
func (t *Tracer) CommitStaged(b *Buf, lo, hi int) {
	if t == nil || b == nil || lo >= hi {
		return
	}
	t.mu.Lock()
	for _, e := range b.ev[lo:hi] {
		t.emitLocked(e)
	}
	t.mu.Unlock()
}

// Events returns a copy of the retained events in sequence order.
func (t *Tracer) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, t.n)
	for i := 0; i < t.n; i++ {
		out = append(out, t.ring[(t.head+i)%cap(t.ring)])
	}
	return out
}

// Len returns the number of retained events.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Dropped returns how many events were overwritten by ring wraparound.
func (t *Tracer) Dropped() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Reset discards all retained events and restarts sequence numbering,
// keeping the ring storage and the clock.
func (t *Tracer) Reset() {
	t.mu.Lock()
	t.ring = t.ring[:0]
	t.head, t.n = 0, 0
	t.seq, t.dropped = 0, 0
	t.mu.Unlock()
}
