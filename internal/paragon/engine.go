package paragon

import (
	"slices"

	"paragon/internal/aragon"
	"paragon/internal/graph"
	"paragon/internal/obs"
	"paragon/internal/partition"
)

// taskSpan locates a task's kept moves inside its worker's arena, and —
// when tracing — its staged trace events inside the worker's event buf.
// Arenas and bufs grow by append, so the span stores indices, not slices;
// both are emptied before every wave, the barrier having consumed them.
type taskSpan struct {
	worker int32
	mstart int32
	mend   int32
	estart int32
	eend   int32
}

// span is the work order sent to every worker: one wave's task range.
// Workers pick the indices congruent to their id modulo Workers — a static
// assignment, so allocation counts are deterministic for a fixed worker
// count (no work stealing).
type span struct {
	lo int32
	hi int32
}

// testWaveSynced, consulted only when non-nil (set by tests, from the
// coordinator goroutine, never while an engine runs), fires at the end of
// each wave barrier with the wave's task range — and once per Refine round
// before its first wave, as wave −1 with an empty range: the state
// repairBoundary left is a barrier state too.
var testWaveSynced func(e *WaveEngine, wave int, lo, hi int32)

// WaveEngine runs a caller's schedule of waves of partition-disjoint
// pairs on a bounded worker pool (DESIGN.md §12): the shadow view the
// waves refine, the per-worker refiners and move arenas, the partition
// loads, and the barrier that replays each wave's kept moves into the
// master index. It runs pairs and nothing else. Refine's scheduler feeds
// it tournament waves, with a profile; the portfolio's combine
// anti-diagonal waves and its members one pair per wave, without. The
// zero value is ready for Open, and one engine serves any number of Open
// … Close calls, keeping its state while (graph, index, refiner config)
// stay the same — a new worker count only starts other workers. One
// worker runs every wave inline, on the caller's goroutine.
//
// Determinism is structural, not incidental:
//
//   - Pairs within a wave touch pairwise-disjoint partitions, so their
//     candidate buckets, load entries, and moved vertices are disjoint —
//     every shared write during a wave goes to memory owned by exactly
//     one pair.
//   - What a pair learns about vertices OUTSIDE it comes from wave-start
//     state — the neighbor profile or, without one, the master's
//     assignment (partition.Shadow.Master) — which only the coordinator
//     patches, between waves, in task order; never from how concurrent
//     pairs interleave.
//   - Per-pair results land in task-indexed slices, read in task order.
//
// Barrier invariant (DESIGN.md §14): outside a wave,
//
//	shadow view == pm.Assign (bucket membership == the master index's),
//	loads == pm.Weights(g),
//	profile segment of v == that of a full table over pm.Assign, for
//	    every materialized v — and every mask-set v is materialized,
//	shadow bucket prefix of q == {v ∈ P_q : mask bit set}.
//
// Open establishes the first two with one O(|V|) copy and SetMask the
// last two; each wave barrier restores all four by replaying the wave's
// kept moves — which the refiners already applied to the shadow and to
// loads (rolled-back moves were undone through both before the barrier)
// — into the master index and the profile. The master is therefore the
// wave-start view: every vertex moves at most once per wave, so
// pm.Assign[v] at the barrier is still the owner the wave started from.
type WaveEngine struct {
	g       *graph.Graph
	pm      *partition.Partitioning // master (authoritative) partitioning
	ix      *partition.Index
	c       [][]float64
	orig    []int32
	maxLoad int64
	workers int
	acfg    aragon.Config

	shadow  *partition.Shadow          // shared live view refined by the waves
	profile *partition.NeighborProfile // wave-start neighbor weights, patched at barriers; nil: seed from the master
	loads   []int64                    // per-partition weights, written by the refiners
	mask    *partition.Bitset          // the movable vertices (SetMask)

	// refiners[w] is worker w's, for every worker count the engine has been
	// opened with: Spare[w] where the caller lends one, else built here once.
	refiners []*aragon.Refiner
	arenas   [][]aragon.Move
	// Spare lends the engine refiners over the same graph, k and config that
	// are idle from every Open to its Close; slot w goes to worker w.
	Spare []*aragon.Refiner

	// Observability: workers stage KindPairRefined events in their ebuf
	// (never touching the tracer directly); the caller's barrier commits
	// each task's staged span in task order — the discipline of the move
	// arenas, and why the trace is bit-identical across worker counts.
	trace *obs.Tracer
	round int32
	ebufs []obs.Buf

	// The schedule, filled by the caller before Run: wave t is
	// Tasks[Waves[t]:Waves[t+1]], its pairs over pairwise-disjoint
	// partitions. Results[ti] is task ti's outcome after its wave.
	Tasks   [][2]int32
	Waves   []int32
	Results []aragon.Result
	spans   []taskSpan

	start []chan span // nil with one worker: the waves run inline
	done  chan struct{}
}

// Open readies the engine for waves over the master ix indexes: shadow and
// loads are refilled from it and, beyond the first, cfg.Workers workers
// started, to live until Close. orig is the migration reference, profile
// (empty, or nil) the table candidates are seeded from.
func (e *WaveEngine) Open(g *graph.Graph, ix *partition.Index, c [][]float64, orig []int32, maxLoad int64, cfg Config, profile *partition.NeighborProfile) {
	w, acfg := cfg.Workers, cfg.AragonConfig()
	if e.g != g || e.ix != ix || e.acfg != acfg {
		*e = WaveEngine{g: g, pm: ix.Partitioning(), ix: ix, acfg: acfg, shadow: ix.NewShadow(),
			Spare: e.Spare, Tasks: e.Tasks, Waves: e.Waves}
	} else {
		e.shadow.Resync(ix)
	}
	for i := len(e.refiners); i < w; i++ {
		var r *aragon.Refiner
		if i < len(e.Spare) {
			r = e.Spare[i]
		} else {
			r = aragon.NewRefiner(g, e.shadow, acfg)
		}
		e.refiners = append(e.refiners, r)
		e.arenas = append(e.arenas, nil)
		e.ebufs = append(e.ebufs, obs.Buf{})
	}
	for _, r := range e.refiners[:w] {
		r.Bind(e.shadow)
		r.SetProfile(profile)
	}
	e.workers, e.profile, e.mask = w, profile, nil
	e.c, e.orig, e.maxLoad, e.trace = c, orig, maxLoad, cfg.Trace
	e.loads = slices.Grow(e.loads[:0], int(e.pm.K))[:e.pm.K]
	clear(e.loads)
	for v, q := range e.pm.Assign {
		e.loads[q] += int64(g.VertexWeight(int32(v)))
	}
	if w > 1 {
		e.start = make([]chan span, w)
		e.done = make(chan struct{}, w)
		for i := range e.start {
			e.start[i] = make(chan span, 1)
			go e.worker(i)
		}
	}
}

// Close stops the workers, waits for their exit, drops the call's inputs.
func (e *WaveEngine) Close() {
	for _, ch := range e.start {
		close(ch)
	}
	for range e.start {
		<-e.done
	}
	e.start = nil
	e.c, e.orig, e.trace = nil, nil, nil
}

func (e *WaveEngine) worker(w int) {
	for sp := range e.start[w] {
		e.runPairs(w, sp.lo, sp.hi)
		e.done <- struct{}{}
	}
	e.done <- struct{}{}
}

// dispatch runs one wave and returns when all of it is done — the wave
// barrier. With one worker it runs on the calling goroutine; otherwise it
// hands the span to every worker and waits for all of them, the channel
// operations ordering the coordinator's preceding writes before the
// workers' reads, and theirs before its next ones.
func (e *WaveEngine) dispatch(sp span) {
	if e.workers == 1 {
		e.runPairs(0, sp.lo, sp.hi)
		return
	}
	for _, ch := range e.start {
		ch <- sp
	}
	for range e.start {
		<-e.done
	}
}

// SetMask makes mask the movable set of the waves to come. changed lists
// every vertex whose bit differs from what the engine last saw of it: the
// shadow re-sorts those into or out of their bucket's movable prefix, and
// the profile gives the ones admitted for the first time their segment,
// filled from the master. A mask new to the engine since Open is taken
// whole, whatever changed says — so no caller has to list every set bit.
func (e *WaveEngine) SetMask(mask *partition.Bitset, changed []int32) {
	fresh := mask != e.mask
	e.mask = mask
	e.shadow.Sync(mask, changed)
	if e.profile == nil {
		return
	}
	if fresh {
		changed = mask.AppendSet(nil)
	}
	e.profile.Materialize(e.g, e.pm.Assign, mask, changed, e.workers)
}

// Run executes the schedule wave by wave. At each wave's barrier the
// coordinator replays the tasks' kept moves, in task order, into the
// wave-start profile and the master index — a delta patch over the move
// log, never a full copy; a vertex is moved by at most one pair per wave,
// so pm.Assign[v] is still its wave-start owner when its move is reached.
// barrier, when non-nil, then sees the wave: Results, TaskMoves and the
// staged events of its tasks are valid until it returns.
func (e *WaveEngine) Run(barrier func(t int, lo, hi int32)) {
	nt := len(e.Tasks)
	e.Results = slices.Grow(e.Results[:0], nt)[:nt]
	e.spans = slices.Grow(e.spans[:0], nt)[:nt]
	for t := 0; t+1 < len(e.Waves); t++ {
		lo, hi := e.Waves[t], e.Waves[t+1]
		if lo == hi {
			continue
		}
		for w := range e.arenas {
			e.arenas[w] = e.arenas[w][:0]
			e.ebufs[w].Reset()
		}
		e.dispatch(span{lo: lo, hi: hi})
		for ti := lo; ti < hi; ti++ {
			for _, mv := range e.TaskMoves(ti) {
				if e.profile != nil {
					old := e.pm.Assign[mv.V]
					adj := e.g.Neighbors(mv.V)
					ew := e.g.EdgeWeights(mv.V)
					ew = ew[:len(adj)]
					for i, u := range adj {
						e.profile.MoveNeighbor(u, old, mv.To, int64(ew[i]))
					}
				}
				e.ix.Move(mv.V, mv.To)
			}
		}
		if barrier != nil {
			barrier(t, lo, hi)
		}
		if testWaveSynced != nil {
			testWaveSynced(e, t, lo, hi)
		}
	}
}

// runPairs refines this worker's share (static modulo assignment) of
// one wave's tasks. When tracing, each task's KindPairRefined event is
// staged in this worker's ebuf — the coordinator commits it at the
// barrier — so workers never contend on the tracer and the stream stays
// independent of Workers.
func (e *WaveEngine) runPairs(w int, lo, hi int32) {
	r := e.refiners[w]
	for ti := lo; ti < hi; ti++ {
		if int(ti)%e.workers != w {
			continue
		}
		t := e.Tasks[ti]
		mstart := int32(len(e.arenas[w]))
		var res aragon.Result
		e.arenas[w], res = r.RefinePairScheduled(e.arenas[w], e.orig, t[0], t[1], e.c, e.loads, e.maxLoad, e.mask)
		e.Results[ti] = res
		estart := e.ebufs[w].Mark()
		if e.trace != nil {
			e.ebufs[w].Emit(obs.Event{Kind: obs.KindPairRefined, Round: e.round,
				A: t[0], B: t[1], N: int64(res.Moves), X: res.Gain})
		}
		e.spans[ti] = taskSpan{worker: int32(w), mstart: mstart, mend: int32(len(e.arenas[w])),
			estart: int32(estart), eend: int32(e.ebufs[w].Mark())}
	}
}

// TaskMoves returns task ti's kept moves, in execution order.
func (e *WaveEngine) TaskMoves(ti int32) []aragon.Move {
	sp := e.spans[ti]
	return e.arenas[sp.worker][sp.mstart:sp.mend]
}

// AppendAntiDiagonalWaves appends the all-pairs sweep over parts
// (ascending, m of them) to a schedule as 2m−3 waves: wave s ∈ [1, 2m−3]
// holds the pairs (parts[a], parts[s−a]), a < s−a, ascending a. Two pairs
// of a wave are disjoint (equal sums, different a), and two pairs that
// share a partition run in lexicographic order — (a,b′) before (a,b) iff
// b′ < b iff a+b′ < a+b, likewise for any shared position — all the order
// the serial `for a < b` sweep imposes on pairs confined to their own two.
func AppendAntiDiagonalWaves(tasks [][2]int32, waves []int32, parts []int32) ([][2]int32, []int32) {
	m := len(parts)
	waves = append(waves, int32(len(tasks)))
	for s := 1; s <= 2*m-3; s++ {
		for a := max(0, s-m+1); a < s-a; a++ {
			tasks = append(tasks, [2]int32{parts[a], parts[s-a]})
		}
		waves = append(waves, int32(len(tasks)))
	}
	return tasks, waves
}
