package paragon

import (
	"slices"

	"paragon/internal/aragon"
	"paragon/internal/graph"
	"paragon/internal/partition"
)

// taskSpan locates a task's kept moves inside its worker's arena. Arenas
// grow by append, so the span stores indices, not slices; they are emptied
// before every wave, the barrier having consumed them.
type taskSpan struct {
	worker int32
	mstart int32
	mend   int32
}

// span is the work order sent to every worker: one wave's task range.
// Workers pick the indices congruent to their id modulo Workers — a static
// assignment, so allocation counts are deterministic for a fixed worker
// count (no work stealing). A patch span asks instead for the wave's
// profile patch over the worker's vertex range (patchProfile).
type span struct {
	lo    int32
	hi    int32
	patch bool
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
// master index. Besides pairs it keeps the movable mask of §5 (Repair),
// because the barrier's walk of the kept moves is what changes it. Refine
// feeds it tournament waves, with a profile; the portfolio's combine
// anti-diagonal waves, and RefineSerial and the portfolio's members one
// pair per wave, without. The
// zero value is ready for Open, and one engine serves any number of Open
// … Close calls, keeping its state while (graph, index, refiner config)
// stay the same — a new worker count only starts other workers. One
// worker runs every wave inline, on the caller's goroutine.
//
// Determinism is structural, not incidental:
//
//   - Pairs within a wave touch pairwise-disjoint partitions, so their
//     load entries and moved vertices are disjoint — every shared write
//     during a wave goes to memory owned by exactly one pair — and the
//     movable lists they gather from are not written until the barrier.
//   - What a pair learns about vertices OUTSIDE it comes from wave-start
//     state — the neighbor profile or, without one, the master's
//     assignment (partition.Shadow.Master) — which only the coordinator
//     patches, between waves, in task order; never from how concurrent
//     pairs interleave.
//   - Per-pair results land in task-indexed slices, read in task order.
//     They are all a worker reports: workers never touch the
//     observability plane, and what a run traces the caller's barrier
//     emits from Results and Tasks, on the coordinator.
//
// Barrier invariant (DESIGN.md §14): outside a wave,
//
//	shadow view == pm.Assign,
//	loads == pm.Weights(g),
//	profile segment of v == that of a full table over pm.Assign, for
//	    every materialized v — and every mask-set v is materialized,
//	shadow movable list of q == {v : pm.Assign[v] == q, mask bit set}.
//
// Open establishes the first two with one O(|V|) copy and SetMask the
// last two. During a wave workers write the view, loads, their arenas and
// their tasks' result slots, nothing else that is shared. Each barrier
// restores all four by replaying the wave's kept moves — which the
// refiners already applied to the view and to loads (rolled-back moves
// were undone through both before the barrier) — into the profile and,
// through Shadow.Commit, into the lists and the master index. The master
// is therefore the wave-start view: every vertex moves at most once per
// wave, so pm.Assign[v] at the barrier is still the owner the wave
// started from.
type WaveEngine struct {
	g       *graph.Graph
	pm      *partition.Partitioning // master (authoritative) partitioning
	ix      *partition.Index
	c       *partition.Costs
	orig    []int32
	maxLoad int64
	workers int
	acfg    aragon.Config

	shadow  *partition.Shadow          // shared live view refined by the waves
	profile *partition.NeighborProfile // wave-start neighbor weights, patched at barriers; nil: seed from the master
	loads   []int64                    // per-partition weights, written by the refiners
	mask    *partition.Bitset          // the movable vertices (SetMask)
	ranges  []int32                    // worker w patches the profile of [ranges[w], ranges[w+1])

	// The mask Repair keeps. filled: a Repair since Open scanned the
	// boundary into bmask, and the barriers record in dirty each moved
	// vertex and its neighbors, the only ones whose boundary status a move
	// can change.
	khop     int
	filled   bool
	bmask    *partition.Bitset // the boundary
	kmask    *partition.Bitset // k-hop > 0: its expansion, allocated on first use
	dirty    []int32           // moved vertices + neighbors since the last Repair
	frontier []int32           // k-hop > 0: the set bits of kmask, in discovery order
	previous []int32           // k-hop > 0: the frontier before, whose kmask bits the next expansion clears

	// refiners[w] is worker w's, for every worker count the engine has been
	// opened with: Spare[w] where the caller lends one, else built here once.
	refiners []*aragon.Refiner
	arenas   [][]aragon.Move
	// Spare lends the engine refiners over the same graph, k and config that
	// are idle from every Open to its Close; slot w goes to worker w.
	Spare []*aragon.Refiner

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
// started, to live until Close. c is the quantised matrix, orig the
// migration reference, profile (empty, or nil) what candidates seed from,
// cfg.KHop the radius of the mask Repair keeps; the next Repair scans the
// whole boundary.
func (e *WaveEngine) Open(g *graph.Graph, ix *partition.Index, c *partition.Costs, orig []int32, maxLoad int64, cfg Config, profile *partition.NeighborProfile) {
	w, acfg := cfg.Workers, cfg.AragonConfig()
	if e.g != g || e.ix != ix || e.acfg != acfg {
		*e = WaveEngine{g: g, pm: ix.Partitioning(), ix: ix, acfg: acfg, shadow: ix.NewShadow(),
			Spare: e.Spare, Tasks: e.Tasks, Waves: e.Waves}
	} else {
		e.shadow.Resync()
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
	}
	for _, r := range e.refiners[:w] {
		r.Bind(e.shadow)
		r.SetProfile(profile)
	}
	e.workers, e.profile, e.mask = w, profile, nil
	e.khop, e.filled, e.dirty = cfg.KHop, false, e.dirty[:0]
	if len(e.ranges) != w+1 {
		e.ranges = g.VertexRanges(w)
	}
	e.c, e.orig, e.maxLoad = c, orig, maxLoad
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
	e.c, e.orig = nil, nil
}

func (e *WaveEngine) worker(w int) {
	for sp := range e.start[w] {
		if sp.patch {
			e.patchProfile(w, sp.lo, sp.hi)
		} else {
			e.runPairs(w, sp.lo, sp.hi)
		}
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
		if sp.patch {
			e.patchProfile(0, sp.lo, sp.hi)
		} else {
			e.runPairs(0, sp.lo, sp.hi)
		}
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
// shadow lists or unlists those in their partition's movable list, and
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

// Repair brings the mask of §5 in line with the master index and makes it
// the waves' movable set (SetMask). The first Repair after Open scans the
// whole boundary; a later one re-evaluates only the vertices the barriers
// recorded since, so its cost follows the moved volume, not |V|. At a
// positive k-hop radius the mask is the boundary's expansion, a
// breadth-first search with that mask itself as the visited set. Refine
// repairs once per round; RefineSerial at every barrier, and a portfolio
// member at every barrier (k-hop 0) or once per round. A caller that sets its own mask (SetMask) and never
// repairs records nothing.
func (e *WaveEngine) Repair() {
	// dirty becomes the vertices whose boundary bit changed since the last
	// repair: what is left of the recorded ones once those that kept their
	// status are dropped. The first repair lists none — the mask is new to
	// the engine since Open, which takes it whole.
	if !e.filled {
		if e.bmask == nil {
			e.bmask = partition.NewBitset(e.g.NumVertices())
		}
		e.bmask.ClearAll()
		for v := int32(0); v < e.bmask.Len(); v++ {
			if e.ix.IsBoundary(v) {
				e.bmask.Set(v)
			}
		}
		e.dirty = e.dirty[:0]
		e.filled = true
	} else {
		flipped := e.dirty[:0]
		for _, v := range e.dirty {
			if on := e.ix.IsBoundary(v); on != e.bmask.Get(v) {
				e.bmask.SetTo(v, on)
				flipped = append(flipped, v)
			}
		}
		e.dirty = flipped
	}
	mask, changed := e.bmask, e.dirty
	if e.khop > 0 {
		// kmask loses members of its old frontier only and gains members of
		// its new one only.
		if e.kmask == nil {
			e.kmask = partition.NewBitset(e.bmask.Len())
		}
		e.previous, e.frontier = e.frontier, e.previous
		for _, v := range e.previous {
			e.kmask.Unset(v)
		}
		e.frontier = e.kmask.Expand(e.g, e.bmask.AppendSet(e.frontier[:0]), e.khop)
		e.SetMask(e.kmask, e.previous) // all of them materialized before
		mask, changed = e.kmask, e.frontier
	}
	e.SetMask(mask, changed)
	e.dirty = e.dirty[:0]
}

// Run executes the schedule wave by wave. At each wave's barrier the
// tasks' kept moves are replayed, in task order, into the wave-start
// profile (by the workers, each over its own vertex range: patchProfile)
// and then, by the coordinator, into the shadow's movable lists and the
// master index (Shadow.Commit) — a delta patch over the move log, never a
// full copy. The same walk records, once a Repair has filled the mask,
// what the next Repair re-evaluates. barrier, when non-nil, then sees the
// wave: Results and TaskMoves of its tasks are valid until it returns.
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
		}
		e.dispatch(span{lo: lo, hi: hi})
		if e.profile != nil && slices.ContainsFunc(e.arenas, func(a []aragon.Move) bool { return len(a) > 0 }) {
			e.dispatch(span{lo: lo, hi: hi, patch: true}) // a wave that kept no move has nothing to patch
		}
		for ti := lo; ti < hi; ti++ {
			for _, mv := range e.TaskMoves(ti) {
				e.shadow.Commit(mv.V, mv.To)
				if e.filled {
					e.dirty = append(e.dirty, mv.V)
					e.dirty = append(e.dirty, e.g.Neighbors(mv.V)...)
				}
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
// one wave's tasks. A worker reports only through the task-indexed Results
// and its arena; what the run traces, the coordinator emits at the barrier.
func (e *WaveEngine) runPairs(w int, lo, hi int32) {
	r := e.refiners[w]
	for ti := lo; ti < hi; ti++ {
		if int(ti)%e.workers != w {
			continue
		}
		t := e.Tasks[ti]
		mstart := int32(len(e.arenas[w]))
		e.arenas[w], e.Results[ti] = r.RefinePairScheduled(e.arenas[w], e.orig, t[0], t[1], e.c, e.loads, e.maxLoad, e.mask)
		e.spans[ti] = taskSpan{worker: int32(w), mstart: mstart, mend: int32(len(e.arenas[w]))}
	}
}

// patchProfile replays the kept moves of tasks [lo, hi), in task order,
// into the profile segments of the neighbors in worker w's vertex range.
// Segments are per vertex, so the workers' ranges split the patch into
// disjoint writes, and each segment still takes its patches in task order.
// Every vertex moves at most once per wave, so a move's From is the
// wave-start owner it shifts weight from.
func (e *WaveEngine) patchProfile(w int, lo, hi int32) {
	vlo, vhi := e.ranges[w], e.ranges[w+1]
	for ti := lo; ti < hi; ti++ {
		for _, mv := range e.TaskMoves(ti) {
			adj := e.g.Neighbors(mv.V)
			ew := e.g.EdgeWeights(mv.V)
			ew = ew[:len(adj)]
			for i, u := range adj {
				if u >= vlo && u < vhi {
					e.profile.MoveNeighbor(u, mv.From, mv.To, int64(ew[i]))
				}
			}
		}
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
