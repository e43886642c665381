package paragon

// Pair-level parallel scheduling (DESIGN.md §12). The per-group fan-out
// of Algorithm 1 refines each group's m·(m−1)/2 partition pairs serially
// on its group server; here the pairs are instead laid out with the
// round-robin tournament ("circle") schedule — every tournament round of
// a group is a set of ⌊m/2⌋ pairs over pairwise-disjoint partitions — and
// all groups' same-round pairs form one global wave executed concurrently
// on a bounded worker pool.
//
// Determinism is structural, not incidental:
//
//   - Pairs within a wave touch pairwise-disjoint partitions, so their
//     candidate buckets, load entries, and moved vertices are disjoint —
//     every shared write during a wave goes to memory owned by exactly
//     one pair.
//   - What a pair learns about vertices OUTSIDE it comes from the
//     wave-start neighbor profile, which only the coordinator patches,
//     between waves, in task order. A pair's computation therefore
//     depends only on wave-start state, never on how concurrent pairs
//     interleave.
//   - Per-pair results land in task-indexed slices and are reduced in
//     task order; the sharded sweeps accumulate into a fixed number of
//     shards (sweepShards, independent of Workers) reduced in shard
//     order, so every float sum associates identically at any worker
//     count.
//
// Scaling discipline (DESIGN.md §14): all per-round sequential work is
// proportional to *moved/boundary* vertices, never to |V|. The shared
// shadow and the boundary bitset are initialized once per Refine and
// thereafter patched only from the move log — the barrier commit leaves
// master and shadow bit-identical after every wave, so nothing is ever
// re-copied. What the pair kernel reads holds the movable vertices only:
// the profile has a segment per vertex the mask ever admitted, and the
// shadow keeps each bucket's movable members as a prefix. The remaining
// full sweeps (ship accounting, migration sweep) walk bit-packed masks at
// 64 vertices per word.
//
// The result is bit-identical to serial execution of the same schedule
// for any Config.Workers, which TestSchedulerDeterminism asserts.

import (
	"paragon/internal/aragon"
	"paragon/internal/graph"
	"paragon/internal/obs"
	"paragon/internal/partition"
)

// sweepShards is the fixed shard count for the per-round sweeps (allowed
// mask, boundary-shipping accounting, final migration sweep). It is
// deliberately independent of Config.Workers: per-shard accumulators
// always cover identical vertex ranges, so the shard-order reduction
// sums over the same boundaries no matter how many workers executed the
// shards — and the serial migration sweep emulates the same shard
// association exactly.
const sweepShards = 64

// pairTask is one scheduled refinement pair.
type pairTask struct {
	pi, pj int32
}

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

// span is the work order sent to every worker: a task kind plus, for
// pair waves, the wave's task range. Workers pick the indices congruent
// to their id modulo Workers — a static assignment, so allocation counts
// are deterministic for a fixed worker count (no work stealing).
type span struct {
	kind int32
	lo   int32
	hi   int32
}

const (
	kindPairs int32 = iota
	kindMask
	kindShip
)

// testWaveSynced, consulted only when non-nil (set by scheduler tests,
// from the coordinator goroutine, never concurrently with a running
// Refine), fires at each wave barrier after the master absorbed the
// wave's kept moves, with the wave's task range — and once per round
// before its first wave, as wave −1 with an empty range: the state
// repairBoundary left is a barrier state too.
var testWaveSynced func(sc *scheduler, wave int, lo, hi int32)

// scheduler owns the shared state of one Refine call's parallel
// execution: the shadow view the waves refine, the per-worker refiners
// and move arenas, the partition loads, and the shard accumulators of
// the sharded sweeps. It is created once per Refine and its worker
// goroutines live until close.
//
// Barrier invariant (DESIGN.md §14): outside a wave,
//
//	shadow view == pm.Assign (bucket membership == the master index's),
//	loads == pm.Weights(g),
//	profile segment of v == that of a full table over pm.Assign, for
//	    every materialized v — and every mask-set v is materialized,
//	shadow bucket prefix of q == {v ∈ P_q : mask bit set}.
//
// newScheduler establishes the first two with one O(|V|) init and
// repairBoundary the last two for the round's mask; each wave barrier
// restores all four by replaying the wave's kept moves — which the
// refiners already applied to the shadow and to loads (rolled-back moves
// were undone through both before the barrier) — into the master index
// and the profile. The master is therefore the wave-start view: every
// vertex moves at most once per wave, so pm.Assign[v] at the barrier is
// still the owner the wave started from.
type scheduler struct {
	g       *graph.Graph
	pm      *partition.Partitioning // master (authoritative) partitioning
	ix      *partition.Index
	c       [][]float64
	orig    []int32
	maxLoad int64
	workers int

	shadow  *partition.Shadow          // shared live view refined by the waves
	profile *partition.NeighborProfile // wave-start neighbor weights, patched at barriers
	loads   []int64                    // per-partition weights, written by the refiners

	refiners []*aragon.Refiner
	arenas   [][]aragon.Move

	// Observability: workers stage KindPairRefined events in their ebuf
	// (never touching the tracer directly); the coordinator commits each
	// task's staged span at the wave barrier, in task order — the same
	// discipline as the move arenas, and the reason the trace is
	// bit-identical across worker counts.
	trace *obs.Tracer
	round int32
	ebufs []obs.Buf

	tasks   []pairTask
	pairbuf [][2]int32 // scratch for AppendTournamentRound
	waves   []int32    // wave t = tasks[waves[t]:waves[t+1]]
	spans   []taskSpan
	results []aragon.Result
	live    []int32 // surviving group indices this round, ascending

	// Movable-vertex mask machinery (§5). bmask is the boundary bitset,
	// filled by one sharded scan on the first round and thereafter
	// delta-maintained from the commit log's dirty list (a vertex's
	// boundary status can change only when it or a neighbor moves).
	// mask is what refiners and the ship sweep consume: bmask itself at
	// k-hop 0, or the k-hop expansion kmask otherwise.
	mask     *partition.Bitset
	bmask    *partition.Bitset
	kmask    *partition.Bitset // lazily allocated, k-hop > 0 only
	maskInit bool
	dirty    []int32           // moved vertices + neighbors since the last mask refresh
	diff     *partition.Bitset // v set iff pm.Assign[v] != orig[v]
	frontier []int32           // k-hop > 0: the set bits of kmask, in discovery order
	previous []int32           // k-hop > 0: last round's frontier, whose kmask bits this round's expansion cleared
	serverOf []int32           // partition -> its group's server this round, -1 outside every group

	shipVerts []int64
	shipEdges []int64

	start []chan span
	done  chan struct{}
}

func newScheduler(g *graph.Graph, pm *partition.Partitioning, ix *partition.Index, c [][]float64, orig []int32, maxLoad int64, cfg Config) (*scheduler, error) {
	// Empty: repairBoundary materializes the movable vertices, round by
	// round. A table too large for its offsets is still refused here.
	profile, err := partition.NewNeighborProfile(g, pm.K)
	if err != nil {
		return nil, err
	}
	n := g.NumVertices()
	w := cfg.Workers
	sc := &scheduler{
		g:       g,
		pm:      pm,
		ix:      ix,
		c:       c,
		orig:    orig,
		maxLoad: maxLoad,
		workers: w,

		shadow:  ix.NewShadow(),
		profile: profile,
		loads:   pm.Weights(g),

		refiners: make([]*aragon.Refiner, w),
		arenas:   make([][]aragon.Move, w),

		trace: cfg.Trace,
		ebufs: make([]obs.Buf, w),

		bmask:    partition.NewBitset(n),
		diff:     partition.NewBitset(n),
		serverOf: make([]int32, pm.K),

		shipVerts: make([]int64, sweepShards),
		shipEdges: make([]int64, sweepShards),

		start: make([]chan span, w),
		done:  make(chan struct{}, w),
	}
	sc.mask = sc.bmask
	acfg := cfg.AragonConfig()
	for i := 0; i < w; i++ {
		r := aragon.NewRefiner(g, sc.shadow, acfg)
		r.SetProfile(sc.profile)
		sc.refiners[i] = r
		sc.start[i] = make(chan span, 1)
		go sc.worker(i)
	}
	return sc, nil
}

// close shuts the worker pool down. Workers drain their channel and
// exit; the buffered done channel needs no further synchronization
// because close is only called after every dispatched span completed.
func (sc *scheduler) close() {
	for _, ch := range sc.start {
		close(ch)
	}
}

func (sc *scheduler) worker(w int) {
	for sp := range sc.start[w] {
		switch sp.kind {
		case kindPairs:
			sc.runPairs(w, sp.lo, sp.hi)
		case kindMask:
			sc.runMaskShards(w)
		case kindShip:
			sc.runShipShards(w)
		}
		sc.done <- struct{}{}
	}
}

// dispatch hands one span to every worker and waits for all of them —
// the wave barrier. Channel send/receive pairs give the coordinator's
// preceding writes happens-before visibility in the workers and vice
// versa on completion.
func (sc *scheduler) dispatch(sp span) {
	for _, ch := range sc.start {
		ch <- sp
	}
	for range sc.start {
		<-sc.done
	}
}

// shardRange returns shard s of [0, n) under the fixed sweepShards
// split. 64-bit intermediate math: n·s can exceed int32.
func shardRange(n int32, s int) (int32, int32) {
	lo := int32(int64(n) * int64(s) / sweepShards)
	hi := int32(int64(n) * int64(s+1) / sweepShards)
	return lo, hi
}

// buildSchedule lays out the round's tasks: wave t holds, in ascending
// group order, every surviving group's tournament-round-t pairs. Groups
// of uneven size finish early; their slots simply stop contributing to
// later waves.
func (sc *scheduler) buildSchedule(groups [][]int32) {
	sc.tasks = sc.tasks[:0]
	sc.waves = sc.waves[:0]
	maxR := 0
	for _, gi := range sc.live {
		m := len(groups[gi])
		if r := m + (m & 1) - 1; r > maxR {
			maxR = r
		}
	}
	sc.waves = append(sc.waves, 0)
	for t := 0; t < maxR; t++ {
		for _, gi := range sc.live {
			sc.appendWavePairs(groups[gi], t)
		}
		sc.waves = append(sc.waves, int32(len(sc.tasks)))
	}
	nt := len(sc.tasks)
	if cap(sc.results) < nt {
		sc.results = make([]aragon.Result, nt)
		sc.spans = make([]taskSpan, nt)
	} else {
		sc.results = sc.results[:nt]
		sc.spans = sc.spans[:nt]
	}
}

// appendWavePairs appends tournament round t of one group to the task
// list, via the shared circle-schedule generator and a reused pair
// scratch.
func (sc *scheduler) appendWavePairs(group []int32, t int) {
	sc.pairbuf = AppendTournamentRound(sc.pairbuf[:0], group, t)
	for _, pr := range sc.pairbuf {
		sc.tasks = append(sc.tasks, pairTask{pr[0], pr[1]})
	}
}

// AppendTournamentRound appends round t of the circle tournament over
// group to dst and returns dst: the circle method over M = m (+1 if odd,
// a bye) slots. Slot M−1 is fixed and plays slot t; slot (t+i) mod (M−1)
// plays slot (t−i) mod (M−1). Pairs within one round are pairwise
// disjoint — the disjointness the scheduler's wave barrier relies on —
// and each pair is emitted ascending (pi < pj). Rounds t in
// [0, m + (m&1) − 1) cover every pair of the group exactly once.
// Exported because portfolio members replay the same schedule serially.
func AppendTournamentRound(dst [][2]int32, group []int32, t int) [][2]int32 {
	m := len(group)
	mm := m + (m & 1)
	rounds := mm - 1
	if t >= rounds {
		return dst
	}
	pair := func(a, b int) {
		if a >= m || b >= m {
			return // the bye slot of an odd group
		}
		pi, pj := group[a], group[b]
		if pi > pj {
			pi, pj = pj, pi
		}
		dst = append(dst, [2]int32{pi, pj})
	}
	pair(mm-1, t%rounds)
	for i := 1; i < mm/2; i++ {
		pair((t+i)%rounds, (t-i+rounds)%rounds)
	}
	return dst
}

// refineWaves is the pair-parallel refinement of the surviving groups
// against the live shadow of the master (DESIGN.md §12, §14): tournament
// waves of disjoint pairs, foreign vertices seen through the wave-start
// profile, every wave committed at its barrier. The round then costs
// roundTicks of virtual time and is counted in Stats.
func (d *driver) refineWaves(round int32, roundTicks int64) {
	sc := d.sc
	sc.round = round
	sc.buildSchedule(d.groups)
	if testWaveSynced != nil {
		testWaveSynced(sc, -1, 0, 0)
	}
	d.st.RoundGains = append(d.st.RoundGains, 0)
	roundMoves := 0
	for t := 0; t+1 < len(sc.waves); t++ {
		lo, hi := sc.waves[t], sc.waves[t+1]
		if lo == hi {
			continue
		}
		for w := range sc.arenas {
			sc.arenas[w] = sc.arenas[w][:0]
			sc.ebufs[w].Reset()
		}
		d.tr.Emit(obs.Event{Kind: obs.KindWaveScheduled, Round: round, A: int32(t), N: int64(hi - lo)})
		sc.dispatch(span{kind: kindPairs, lo: lo, hi: hi})
		roundMoves += d.commitWave(round, t, lo, hi)
	}
	d.clk.Advance(roundTicks)
	d.st.Rounds++
	d.tr.Emit(obs.Event{Kind: obs.KindRoundEnd, Round: round, N: int64(roundMoves), X: d.st.RoundGains[round]})
}

// commitWave is the wave barrier: the coordinator replays each task's
// kept moves, in task order, into the wave-start profile and the master
// index — a delta patch over the move log, never a full copy — and
// reduces the task's result into Stats, the fixed-order float summation
// of the determinism contract. Each vertex is moved by at most one pair
// per wave (disjoint partitions), so this is a plain replay and
// pm.Assign[v] is still v's wave-start owner when its move is reached.
// The move log also feeds the two delta structures of the sweeps: the
// dirty list (moved vertices + neighbors, whose boundary status the next
// repairBoundary re-evaluates) and the diff bitset (vertices whose owner
// differs from the original decomposition, walked by sweepMigration).
// Staged trace events are committed at the same barrier, also in task
// order. Returns the moves the wave put into the master.
func (d *driver) commitWave(round int32, t int, lo, hi int32) (waveMoves int) {
	sc := d.sc
	for ti := lo; ti < hi; ti++ {
		res := sc.results[ti]
		d.st.PairsRefined++
		d.st.Moves += res.Moves
		d.st.Gain += res.Gain
		d.st.RoundGains[round] += res.Gain
		waveMoves += res.Moves
		d.mx.pairMoves.Observe(int64(res.Moves))
		for _, mv := range sc.taskMoves(ti) {
			old := sc.pm.Assign[mv.V]
			adj := sc.g.Neighbors(mv.V)
			ew := sc.g.EdgeWeights(mv.V)
			ew = ew[:len(adj)]
			for i, u := range adj {
				sc.profile.MoveNeighbor(u, old, mv.To, int64(ew[i]))
			}
			sc.ix.Move(mv.V, mv.To)
			sc.diff.SetTo(mv.V, mv.To != sc.orig[mv.V])
			sc.dirty = append(sc.dirty, mv.V)
			sc.dirty = append(sc.dirty, adj...)
		}
		sp := sc.spans[ti]
		d.tr.CommitStaged(&sc.ebufs[sp.worker], int(sp.estart), int(sp.eend))
	}
	d.mx.waves.Inc()
	d.mx.wavePairs.Observe(int64(hi - lo))
	d.tr.Emit(obs.Event{Kind: obs.KindWaveCommitted, Round: round, A: int32(t), N: int64(waveMoves)})
	if testWaveSynced != nil {
		testWaveSynced(sc, t, lo, hi)
	}
	return waveMoves
}

// runPairs refines this worker's share (static modulo assignment) of
// one wave's tasks. When tracing, each task's KindPairRefined event is
// staged in this worker's ebuf — the coordinator commits it at the
// barrier — so workers never contend on the tracer and the stream stays
// independent of Workers.
func (sc *scheduler) runPairs(w int, lo, hi int32) {
	r := sc.refiners[w]
	for ti := lo; ti < hi; ti++ {
		if int(ti)%sc.workers != w {
			continue
		}
		t := sc.tasks[ti]
		mstart := int32(len(sc.arenas[w]))
		var res aragon.Result
		sc.arenas[w], res = r.RefinePairScheduled(sc.arenas[w], sc.orig, t.pi, t.pj, sc.c, sc.loads, sc.maxLoad, sc.mask)
		sc.results[ti] = res
		estart := sc.ebufs[w].Mark()
		if sc.trace != nil {
			sc.ebufs[w].Emit(obs.Event{Kind: obs.KindPairRefined, Round: sc.round,
				A: t.pi, B: t.pj, N: int64(res.Moves), X: res.Gain})
		}
		sc.spans[ti] = taskSpan{worker: int32(w), mstart: mstart, mend: int32(len(sc.arenas[w])),
			estart: int32(estart), eend: int32(sc.ebufs[w].Mark())}
	}
}

// taskMoves returns task ti's kept moves, in execution order.
func (sc *scheduler) taskMoves(ti int32) []aragon.Move {
	sp := sc.spans[ti]
	return sc.arenas[sp.worker][sp.mstart:sp.mend]
}

// repairBoundary refreshes the movable-vertex mask of §5 and brings what
// the pair kernel reads in line with it. The boundary bitset is filled by
// one sharded full scan on the first round; every later round only
// re-evaluates the commit log's dirty vertices — a vertex's boundary
// status can change only when it or a neighbor moves, so the refresh cost
// is proportional to the previous round's moved volume, not |V|. The
// k-hop 0 default uses the boundary bitset directly; a positive radius
// expands it into the separate kmask. The vertices whose mask bit changed
// are then handed to the shadow, which re-sorts them into or out of their
// bucket's movable prefix, and to the profile, which gives those the mask
// admits for the first time their segment, filled from the master.
func (d *driver) repairBoundary() {
	sc := d.sc
	// dirty becomes the vertices whose boundary bit changed: every boundary
	// vertex on the first round, afterwards what is left of the commit log
	// once the vertices that kept their status are dropped from it.
	if !sc.maskInit {
		sc.dispatch(span{kind: kindMask})
		sc.maskInit = true
		sc.dirty = sc.bmask.AppendSet(sc.dirty[:0])
	} else {
		flipped := sc.dirty[:0]
		for _, v := range sc.dirty {
			if on := sc.ix.IsBoundary(v); on != sc.bmask.Get(v) {
				sc.bmask.SetTo(v, on)
				flipped = append(flipped, v)
			}
		}
		sc.dirty = flipped
	}
	changed := sc.dirty
	if d.cfg.KHop > 0 {
		// kmask lost members of its old frontier only and gained members
		// of its new one only.
		sc.expandBoundary(d.cfg.KHop)
		sc.shadow.Sync(sc.mask, sc.previous)
		changed = sc.frontier
	}
	sc.shadow.Sync(sc.mask, changed)
	sc.profile.Materialize(sc.g, sc.pm.Assign, sc.mask, changed, sc.workers)
	sc.dirty = sc.dirty[:0]
}

// expandBoundary makes kmask the set of vertices within khop hops of a
// boundary vertex, and mask point at it: a breadth-first search from the
// boundary bitset with kmask itself as the visited set, after clearing
// the bits of the last round's frontier — O(Σ deg over the frontier), no
// per-round allocation. frontier lists the new set (in discovery order),
// previous the one it replaced.
func (sc *scheduler) expandBoundary(khop int) {
	if sc.kmask == nil {
		sc.kmask = partition.NewBitset(sc.g.NumVertices())
		sc.mask = sc.kmask
	}
	sc.previous, sc.frontier = sc.frontier, sc.previous
	for _, v := range sc.previous {
		sc.kmask.Unset(v)
	}
	sc.frontier = sc.bmask.AppendSet(sc.frontier[:0])
	for _, v := range sc.frontier {
		sc.kmask.Set(v)
	}
	level := 0
	for hop := 0; hop < khop && level < len(sc.frontier); hop++ {
		next := len(sc.frontier)
		for _, v := range sc.frontier[level:next] {
			for _, u := range sc.g.Neighbors(v) {
				if !sc.kmask.Get(u) {
					sc.kmask.Set(u)
					sc.frontier = append(sc.frontier, u)
				}
			}
		}
		level = next
	}
}

// runMaskShards fills this worker's word-aligned shards of the boundary
// bitset from the index's maintained counts — the one full boundary
// scan of a Refine. Shard boundaries are word-aligned (WordShard), so
// concurrent workers never write the same word.
func (sc *scheduler) runMaskShards(w int) {
	n := sc.g.NumVertices()
	words := sc.bmask.Words()
	for s := w; s < sweepShards; s += sc.workers {
		wLo, wHi := partition.WordShard(n, s, sweepShards)
		for wi := wLo; wi < wHi; wi++ {
			lo := int32(wi) << 6
			hi := lo + 64
			if hi > n {
				hi = n
			}
			var word uint64
			for v := lo; v < hi; v++ {
				if sc.ix.IsBoundary(v) {
					word |= 1 << (uint32(v) & 63)
				}
			}
			words[wi] = word
		}
	}
}

// accountShipping is the boundary-shipping volume sweep: every member
// partition ships its k-hop boundary set, with its half-edges, to the
// group server (the server's own partition stays put). Sharded over the
// worker pool with per-shard accumulators reduced in shard order.
func (d *driver) accountShipping(round int32, servers []int32) {
	sc := d.sc
	for i := range sc.serverOf {
		sc.serverOf[i] = -1
	}
	for gi, grp := range d.groups {
		for _, pi := range grp {
			sc.serverOf[pi] = servers[gi]
		}
	}
	sc.dispatch(span{kind: kindShip})
	var verts, edges int64
	for s := 0; s < sweepShards; s++ {
		verts += sc.shipVerts[s]
		edges += sc.shipEdges[s]
	}
	d.st.BoundaryShipped += verts
	d.st.ShippedEdgeVolume += edges
	d.tr.Emit(obs.Event{Kind: obs.KindShipAccounted, Round: round, N: verts, M: edges})
}

// runShipShards walks only the set bits of the movable mask — 64
// vertices per word skipped when none is movable — instead of testing
// every vertex. Shard partials are integers, summed in shard order.
func (sc *scheduler) runShipShards(w int) {
	n := sc.g.NumVertices()
	assign := sc.pm.Assign
	for s := w; s < sweepShards; s += sc.workers {
		lo, hi := shardRange(n, s)
		var verts, edges int64
		sc.mask.Range(lo, hi, func(v int32) {
			if sv := sc.serverOf[assign[v]]; sv >= 0 && sv != assign[v] {
				verts++
				edges += int64(sc.g.Degree(v))
			}
		})
		sc.shipVerts[s] = verts
		sc.shipEdges[s] = edges
	}
}

// sweepMigration computes the physical data migration plan vs. the input
// decomposition by walking the maintained diff bitset — cost
// proportional to migrated vertices (plus the O(|V|/64) word scan),
// not |V|. The float partials are still accumulated per fixed shard and
// reduced in shard order, emulating the historical sharded sweep's
// summation association exactly, so the result is bit-identical to the
// full-scan implementation at every worker count.
func (d *driver) sweepMigration() {
	sc := d.sc
	n := sc.g.NumVertices()
	assign := sc.pm.Assign
	var mv int64
	var mc float64
	for s := 0; s < sweepShards; s++ {
		lo, hi := shardRange(n, s)
		var shardVerts int64
		var shardCost float64
		sc.diff.Range(lo, hi, func(v int32) {
			shardVerts++
			shardCost += float64(float64(sc.g.VertexSize(v)) * sc.c[sc.orig[v]][assign[v]])
		})
		mv += shardVerts
		mc += shardCost
	}
	d.st.MigratedVertices, d.st.MigrationCost = mv, mc
	d.tr.Emit(obs.Event{Kind: obs.KindMigrationSweep, Round: -1, N: mv, X: mc})
}
