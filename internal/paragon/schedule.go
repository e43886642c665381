package paragon

// Pair-level parallel scheduling (DESIGN.md §12). The per-group fan-out
// of Algorithm 1 refines each group's m·(m−1)/2 partition pairs serially
// on its group server; here the pairs are instead laid out with the
// round-robin tournament ("circle") schedule — every tournament round of
// a group is a set of ⌊m/2⌋ pairs over pairwise-disjoint partitions — and
// all groups' same-round pairs form one global wave executed concurrently
// on a bounded worker pool.
//
// What makes a wave deterministic is the wave engine's (engine.go). The
// per-round passes outside the waves run on the coordinator: the boundary
// scan and the ship accounting are integer, order-free sums, and the
// migration sweep accumulates into a fixed number of shards (sweepShards)
// reduced in shard order, the association its float sum has always had.
//
// Scaling discipline (DESIGN.md §14): all per-round sequential work is
// proportional to *moved/boundary* vertices, never to |V|. The shared
// shadow and the boundary bitset are initialized once per Refine and
// thereafter patched only from the move log — the barrier commit leaves
// master and shadow bit-identical after every wave, so nothing is ever
// re-copied. What the pair kernel reads holds the movable vertices only:
// the profile has a segment per vertex the mask ever admitted, and the
// shadow keeps each bucket's movable members as a prefix, which the ship
// accounting walks too. The migration sweep walks a bit-packed mask at 64
// vertices per word.
//
// The result is bit-identical to serial execution of the same schedule
// for any Config.Workers, which TestSchedulerDeterminism asserts.

import (
	"paragon/internal/graph"
	"paragon/internal/obs"
	"paragon/internal/partition"
)

// sweepShards is the fixed shard count of the migration sweep's float
// reduction: per-shard partials over identical vertex ranges, summed in
// shard order — the association the sum had when the sweep ran sharded
// over the workers, kept so its bits never move.
const sweepShards = 64

// scheduler is one Refine call's use of the wave engine (engine.go): the
// tournament schedule it feeds it, the movable-vertex mask it hands it
// every round, and the diff bitset of the migration sweep. It is created
// once per Refine and its worker goroutines live until Close.
type scheduler struct {
	*WaveEngine
	live []int32 // surviving group indices this round, ascending
	mov  Movable
	diff *partition.Bitset // v set iff pm.Assign[v] != orig[v]
}

func newScheduler(g *graph.Graph, ix *partition.Index, c [][]float64, orig []int32, maxLoad int64, cfg Config) (*scheduler, error) {
	// Empty: repairBoundary materializes the movable vertices, round by
	// round. A table too large for its offsets is still refused here.
	profile, err := partition.NewNeighborProfile(g, ix.Partitioning().K)
	if err != nil {
		return nil, err
	}
	sc := &scheduler{WaveEngine: new(WaveEngine), diff: partition.NewBitset(g.NumVertices())}
	sc.Open(g, ix, c, orig, maxLoad, cfg, profile)
	sc.mov.Reset(ix, cfg.KHop)
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
// Exported because portfolio members run the same schedule, one pair per
// wave.
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
// structures: the movable mask (whose next repair re-evaluates the moved
// vertices and their neighbors) and the diff bitset (vertices whose owner
// differs from the original decomposition, walked by sweepMigration).
// Staged trace events are committed in task order between the wave's two
// events; no worker touches the tracer, so the first reads as emitted
// before the dispatch.
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
		moves := sc.TaskMoves(ti)
		for _, mv := range moves {
			sc.diff.SetTo(mv.V, mv.To != sc.orig[mv.V])
		}
		sc.mov.Moved(moves)
		sp := sc.spans[ti]
		d.tr.CommitStaged(&sc.ebufs[sp.worker], int(sp.estart), int(sp.eend))
	}
	d.mx.waves.Inc()
	d.mx.wavePairs.Observe(int64(hi - lo))
	d.tr.Emit(obs.Event{Kind: obs.KindWaveCommitted, Round: round, A: int32(t), N: int64(waveMoves)})
	return waveMoves
}

// repairBoundary refreshes the movable-vertex mask of §5 (Movable: one
// full boundary scan on the first round, afterwards the last round's moved
// vertices and their neighbors, expanded at a positive k-hop radius) and
// brings what the pair kernel reads in line with it (SetMask).
func (d *driver) repairBoundary() {
	d.sc.mov.Repair(d.sc.WaveEngine)
}

// accountShipping is the boundary-shipping volume pass: every member
// partition ships its k-hop boundary set, with its half-edges, to the
// group server (the server's own partition stays put). It walks only the
// shipping partitions' movable members, which repairBoundary left as the
// shadow's bucket prefixes, and its two sums are integers, so their order
// is immaterial.
func (d *driver) accountShipping(round int32, servers []int32) {
	sc := d.sc
	var verts, edges int64
	for gi, grp := range d.groups {
		for _, q := range grp {
			if q == servers[gi] {
				continue
			}
			for _, v := range sc.shadow.Masked(q) {
				verts++
				edges += int64(sc.g.Degree(v))
			}
		}
	}
	d.st.BoundaryShipped += verts
	d.st.ShippedEdgeVolume += edges
	d.tr.Emit(obs.Event{Kind: obs.KindShipAccounted, Round: round, N: verts, M: edges})
}

// sweepMigration computes the physical data migration plan vs. the input
// decomposition by walking the maintained diff bitset — cost
// proportional to migrated vertices (plus the O(|V|/64) word scan),
// not |V|. The float partials are accumulated per fixed shard and reduced
// in shard order (sweepShards), so the result is bit-identical to the
// sharded full scan it replaced, at every worker count.
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
