package portfolio

import (
	"paragon/internal/paragon"
	"paragon/internal/partition"
)

// combine overlays the two best decompositions and re-refines only where
// they disagree. Starting from the better member a, the disagreement set
// D = {v : a[v] != b[v]} is expanded one hop (the frontier machinery of
// §5 — b's dissenting moves are only worth re-judging together with
// their immediate neighborhoods) into a movable-vertex mask, and every
// pair of the partitions touched by D is re-refined, for at most rounds
// (combineRounds) mask-restricted rounds with early exit once no move is
// kept — on scratch 0's wave engine, reopened with cfg.Workers workers
// that live for this call only. A round is paragon.AppendAntiDiagonalWaves:
// under an off-diagonal-uniform matrix, move for move the ascending
// `for i < j` sweep (DESIGN.md §17). No profile: the mask holds about
// every vertex of the touched partitions, so candidates are seeded from
// the master's assignment.
//
// Every kept prefix has strictly positive Eq. 5 gain, so the overlay
// never scores worse than a under the partition.Score total order up to
// float re-association; the caller compares the recomputed scores and
// keeps a when the overlay fails to strictly improve. Deterministic at
// every worker count because the engine is. The result is left in
// scratch[0]'s partitioning (idle after the join), the accounting in st.
const combineRounds = 2

func (pl *Pool) combine(st *Stats, a, b, base []int32, c [][]float64, cfg paragon.Config, rounds int) {
	scr := pl.scratch[0]
	copy(scr.p.Assign, a)
	scr.ix.Rebuild()

	clear(scr.inPart)
	scr.boundary = scr.boundary[:0]
	for v := int32(0); v < scr.g.NumVertices(); v++ {
		if a[v] != b[v] {
			scr.boundary = append(scr.boundary, v)
			scr.inPart[a[v]] = true
			scr.inPart[b[v]] = true
		}
	}
	st.CombineDiff = len(scr.boundary)
	st.CombinedScore = partition.ComputeScoreInto(scr.g, scr.p, base, c, cfg.Alpha, scr.wbuf)
	if st.CombineDiff == 0 {
		return
	}

	scr.mask.ClearAll()
	scr.boundary = scr.mask.Expand(scr.g, scr.boundary, 1)
	scr.parts = scr.parts[:0]
	for q := int32(0); q < scr.p.K; q++ {
		if scr.inPart[q] {
			scr.parts = append(scr.parts, q)
		}
	}

	e := &scr.eng
	cfg.Trace = nil // the combine reports through Stats; pair events are Refine's
	e.Open(scr.g, scr.ix, c, base, partition.BalanceBound(scr.g, scr.p.K, cfg.MaxImbalance), cfg, nil)
	defer e.Close()
	e.SetMask(scr.mask, nil) // new to the engine: taken whole
	e.Tasks, e.Waves = paragon.AppendAntiDiagonalWaves(e.Tasks[:0], e.Waves[:0], scr.parts)
	for r := 0; r < rounds; r++ {
		e.Run(nil)
		st.CombinePairs += len(e.Tasks)
		st.CombineWaves += len(e.Waves) - 1
		roundMoves := 0
		for _, res := range e.Results {
			roundMoves += res.Moves
			st.CombineGain += res.Gain
		}
		st.CombineMoves += roundMoves
		if roundMoves == 0 {
			break
		}
	}
	if st.CombineMoves > 0 {
		st.CombinedScore = partition.ComputeScoreInto(scr.g, scr.p, base, c, cfg.Alpha, scr.wbuf)
	}
}
