package paragon

// Pair-level parallel scheduling (DESIGN.md §12). The per-group fan-out
// of Algorithm 1 refines each group's m·(m−1)/2 partition pairs serially
// on its group server; here the pairs are instead laid out with the
// round-robin tournament ("circle") schedule — every tournament round of
// a group is a set of ⌊m/2⌋ pairs over pairwise-disjoint partitions — and
// all groups' same-round pairs form one global wave executed concurrently
// on a bounded worker pool.
//
// What makes a wave deterministic is the wave engine's (engine.go); the
// sharded sweeps accumulate into a fixed number of shards (sweepShards,
// independent of Workers) reduced in shard order, so every float sum
// associates identically at any worker count.
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

const (
	kindMask int32 = kindPairs + 1 + iota
	kindShip
)

// scheduler is one Refine call's use of the wave engine (engine.go): the
// tournament schedule it feeds it, the movable-vertex mask it hands it
// every round, and the shard accumulators of the sharded sweeps, which run
// on the engine's workers. It is created once per Refine and its worker
// goroutines live until Close.
type scheduler struct {
	*WaveEngine
	live []int32 // surviving group indices this round, ascending

	// Movable-vertex mask machinery (§5). bmask is the boundary bitset,
	// filled by one sharded scan on the first round and thereafter
	// delta-maintained from the commit log's dirty list (a vertex's
	// boundary status can change only when it or a neighbor moves).
	// mask is what refiners and the ship sweep consume: bmask itself at
	// k-hop 0, or the k-hop expansion kmask otherwise.
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
}

func newScheduler(g *graph.Graph, ix *partition.Index, c [][]float64, orig []int32, maxLoad int64, cfg Config) (*scheduler, error) {
	// Empty: repairBoundary materializes the movable vertices, round by
	// round. A table too large for its offsets is still refused here.
	k := ix.Partitioning().K
	profile, err := partition.NewNeighborProfile(g, k)
	if err != nil {
		return nil, err
	}
	n := g.NumVertices()
	sc := &scheduler{
		WaveEngine: new(WaveEngine),

		bmask:    partition.NewBitset(n),
		diff:     partition.NewBitset(n),
		serverOf: make([]int32, k),

		shipVerts: make([]int64, sweepShards),
		shipEdges: make([]int64, sweepShards),
	}
	sc.Open(g, ix, c, orig, maxLoad, cfg, profile)
	sc.sweeps = []func(w int){kindMask: sc.runMaskShards, kindShip: sc.runShipShards}
	return sc, nil
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
	sc.Tasks = sc.Tasks[:0]
	sc.Waves = sc.Waves[:0]
	maxR := 0
	for _, gi := range sc.live {
		m := len(groups[gi])
		if r := m + (m & 1) - 1; r > maxR {
			maxR = r
		}
	}
	sc.Waves = append(sc.Waves, 0)
	for t := 0; t < maxR; t++ {
		for _, gi := range sc.live {
			sc.Tasks = AppendTournamentRound(sc.Tasks, groups[gi], t)
		}
		sc.Waves = append(sc.Waves, int32(len(sc.Tasks)))
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
		testWaveSynced(sc.WaveEngine, -1, 0, 0)
	}
	d.st.RoundGains = append(d.st.RoundGains, 0)
	roundMoves := 0
	sc.Run(func(t int, lo, hi int32) { roundMoves += d.commitWave(round, t, lo, hi) })
	d.clk.Advance(roundTicks)
	d.st.Rounds++
	d.tr.Emit(obs.Event{Kind: obs.KindRoundEnd, Round: round, N: int64(roundMoves), X: d.st.RoundGains[round]})
}

// commitWave is the driver's half of the wave barrier, after the engine
// put the wave's kept moves into the master: each task's result is
// reduced into Stats in task order — the fixed-order float summation of
// the determinism contract — and its move log feeds the two delta
// structures of the sweeps: the dirty list (moved vertices + neighbors,
// whose boundary status the next repairBoundary re-evaluates) and the
// diff bitset (vertices whose owner differs from the original
// decomposition, walked by sweepMigration). Staged trace events are
// committed in task order between the wave's two events; no worker
// touches the tracer, so the first reads as emitted before the dispatch.
func (d *driver) commitWave(round int32, t int, lo, hi int32) (waveMoves int) {
	sc := d.sc
	d.tr.Emit(obs.Event{Kind: obs.KindWaveScheduled, Round: round, A: int32(t), N: int64(hi - lo)})
	for ti := lo; ti < hi; ti++ {
		res := sc.Results[ti]
		d.st.PairsRefined++
		d.st.Moves += res.Moves
		d.st.Gain += res.Gain
		d.st.RoundGains[round] += res.Gain
		waveMoves += res.Moves
		d.mx.pairMoves.Observe(int64(res.Moves))
		for _, mv := range sc.TaskMoves(ti) {
			sc.diff.SetTo(mv.V, mv.To != sc.orig[mv.V])
			sc.dirty = append(sc.dirty, mv.V)
			sc.dirty = append(sc.dirty, sc.g.Neighbors(mv.V)...)
		}
		sp := sc.spans[ti]
		d.tr.CommitStaged(&sc.ebufs[sp.worker], int(sp.estart), int(sp.eend))
	}
	d.mx.waves.Inc()
	d.mx.wavePairs.Observe(int64(hi - lo))
	d.tr.Emit(obs.Event{Kind: obs.KindWaveCommitted, Round: round, A: int32(t), N: int64(waveMoves)})
	return waveMoves
}

// repairBoundary refreshes the movable-vertex mask of §5 and brings what
// the pair kernel reads in line with it. The boundary bitset is filled by
// one sharded full scan on the first round; every later round only
// re-evaluates the commit log's dirty vertices — a vertex's boundary
// status can change only when it or a neighbor moves, so the refresh cost
// is proportional to the previous round's moved volume, not |V|. The
// k-hop 0 default uses the boundary bitset directly; a positive radius
// expands it into the separate kmask. The vertices whose mask bit changed
// are then handed to the engine (SetMask).
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
	mask, changed := sc.bmask, sc.dirty
	if d.cfg.KHop > 0 {
		// kmask lost members of its old frontier only and gained members
		// of its new one only.
		sc.expandBoundary(d.cfg.KHop)
		sc.SetMask(sc.kmask, sc.previous) // all of them materialized a round ago
		mask, changed = sc.kmask, sc.frontier
	}
	sc.SetMask(mask, changed)
	sc.dirty = sc.dirty[:0]
}

// expandBoundary makes kmask the set of vertices within khop hops of a
// boundary vertex: a breadth-first search from the boundary bitset with
// kmask itself as the visited set (partition.Bitset.Expand), after
// clearing the bits of the last round's frontier — no per-round
// allocation. frontier lists the new set (in discovery order), previous
// the one it replaced.
func (sc *scheduler) expandBoundary(khop int) {
	if sc.kmask == nil {
		sc.kmask = partition.NewBitset(sc.g.NumVertices())
	}
	sc.previous, sc.frontier = sc.frontier, sc.previous
	for _, v := range sc.previous {
		sc.kmask.Unset(v)
	}
	sc.frontier = sc.kmask.Expand(sc.g, sc.bmask.AppendSet(sc.frontier[:0]), khop)
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
