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
// repair, the ship accounting and the migration totals are integer,
// order-free sums.
//
// Scaling discipline (DESIGN.md §14): all per-round sequential work is
// proportional to *moved/boundary* vertices, never to |V|. The shared
// shadow and the engine's movable mask are initialized once per Refine
// and thereafter patched only from the move log — the barrier commit
// leaves master and shadow view bit-identical after every wave, so
// nothing is ever re-copied, and the same walk records what the next
// repair re-evaluates. What the pair kernel reads holds the movable
// vertices only: the profile has a segment per vertex the mask ever
// admitted, and the shadow lists each partition's movable members, which
// the ship accounting walks too. The migration totals change with every
// kept move at the barrier, so the end of the call reads them off.
//
// The result is bit-identical to serial execution of the same schedule
// for any Config.Workers, which TestSchedulerDeterminism asserts.

import (
	"paragon/internal/obs"
	"paragon/internal/partition"
)

// buildSchedule lays out the round's tasks on the engine: wave t holds,
// in ascending group order, every surviving group's tournament-round-t
// pairs. Groups of uneven size finish early; their slots simply stop
// contributing to later waves.
func (d *driver) buildSchedule() {
	e := &d.eng
	e.Tasks = e.Tasks[:0]
	e.Waves = e.Waves[:0]
	maxR := 0
	for _, gi := range d.live {
		m := len(d.groups[gi])
		if r := m + (m & 1) - 1; r > maxR {
			maxR = r
		}
	}
	e.Waves = append(e.Waves, 0)
	for t := 0; t < maxR; t++ {
		for _, gi := range d.live {
			e.Tasks = AppendTournamentRound(e.Tasks, d.groups[gi], t)
		}
		e.Waves = append(e.Waves, int32(len(e.Tasks)))
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
	d.buildSchedule()
	if testWaveSynced != nil {
		testWaveSynced(&d.eng, -1, 0, 0)
	}
	before, roundMoves := d.gain, 0
	d.eng.Run(func(t int, lo, hi int32) { roundMoves += d.commitWave(round, t, lo, hi) })
	d.st.Gain = d.c.Real(d.gain)
	d.st.RoundGains = append(d.st.RoundGains, d.c.Real(d.gain-before))
	d.clk.Advance(roundTicks)
	d.st.Rounds++
	d.tr.Emit(obs.Event{Kind: obs.KindRoundEnd, Round: round, N: int64(roundMoves), X: d.st.RoundGains[round]})
}

// commitWave is the driver's half of the wave barrier, after the engine
// put the wave's kept moves into the master and recorded them for the
// next Repair: each task's result is reduced into Stats (its gain into the
// driver's exact total) in task order, and each kept move updates the
// migration totals against the original decomposition — it takes its
// vertex off From and onto To, so MigratedVertices changes by
// −[From≠orig] + [To≠orig] and Eq. 3 by the matching size·c(orig, ·)
// terms. Integer sums telescope, so at the end they are those of the final
// assignment. Each task's pair_refined event is emitted here too, in task
// order between the wave's two events, from the task's result: only the
// coordinator emits, so the first reads as emitted before the dispatch.
func (d *driver) commitWave(round int32, t int, lo, hi int32) (waveMoves int) {
	e := &d.eng
	d.tr.Emit(obs.Event{Kind: obs.KindWaveScheduled, Round: round, A: int32(t), N: int64(hi - lo)})
	for ti := lo; ti < hi; ti++ {
		res := e.Results[ti]
		d.st.PairsRefined++
		d.st.Moves += res.Moves
		d.gain += res.Gain
		waveMoves += res.Moves
		d.mx.pairMoves.Observe(int64(res.Moves))
		for _, mv := range e.TaskMoves(ti) {
			o, size := e.orig[mv.V], int64(d.g.VertexSize(mv.V))
			if mv.From != o {
				d.st.MigratedVertices--
				d.mig -= size * d.c.At(o, mv.From)
			}
			if mv.To != o {
				d.st.MigratedVertices++
				d.mig += size * d.c.At(o, mv.To)
			}
		}
		pair := e.Tasks[ti]
		d.tr.Emit(obs.Event{Kind: obs.KindPairRefined, Round: round, A: pair[0], B: pair[1], N: int64(res.Moves), X: d.c.Real(res.Gain)})
	}
	d.mx.waves.Inc()
	d.mx.wavePairs.Observe(int64(hi - lo))
	d.tr.Emit(obs.Event{Kind: obs.KindWaveCommitted, Round: round, A: int32(t), N: int64(waveMoves)})
	return waveMoves
}

// repairBoundary refreshes the movable-vertex mask of §5 and brings what
// the pair kernel reads in line with it (WaveEngine.Repair: one full
// boundary scan on the first round, afterwards the last round's moved
// vertices and their neighbors, expanded at a positive k-hop radius).
func (d *driver) repairBoundary() {
	d.eng.Repair()
}

// accountShipping is the boundary-shipping volume pass: every member
// partition ships its k-hop boundary set, with its half-edges, to the
// group server (the server's own partition stays put). It walks only the
// shipping partitions' movable members, which repairBoundary left in the
// shadow's movable lists, and its two sums are integers, so their order
// is immaterial.
func (d *driver) accountShipping(round int32, servers []int32) {
	var verts, edges int64
	for gi, grp := range d.groups {
		for _, q := range grp {
			if q == servers[gi] {
				continue
			}
			for _, v := range d.eng.shadow.Masked(q) {
				verts++
				edges += int64(d.g.Degree(v))
			}
		}
	}
	d.st.BoundaryShipped += verts
	d.st.ShippedEdgeVolume += edges
	d.tr.Emit(obs.Event{Kind: obs.KindShipAccounted, Round: round, N: verts, M: edges})
}

// sweepMigration reports the physical data migration plan vs. the input
// decomposition: the totals commitWave kept current move by move, so it
// costs nothing in |V| or in the migrated vertices.
func (d *driver) sweepMigration() {
	d.st.MigrationCost = d.c.Real(d.mig << partition.AlphaBits)
	d.tr.Emit(obs.Event{Kind: obs.KindMigrationSweep, Round: -1, N: d.st.MigratedVertices, X: d.st.MigrationCost})
}
