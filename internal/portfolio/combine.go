package portfolio

import (
	"paragon/internal/graph"
	"paragon/internal/partition"
)

// combine overlays the two best decompositions and re-refines only where
// they disagree. Starting from the better member a, the disagreement set
// D = {v : a[v] != b[v]} is expanded one hop (the frontier machinery of
// §5 — b's dissenting moves are only worth re-judging together with
// their immediate neighborhoods) into a movable-vertex mask, and the
// partitions touched by D are re-refined pairwise, ascending, for at
// most combineRounds boundary-restricted rounds with early exit once no
// move is kept.
//
// Every kept prefix has strictly positive Eq. 5 gain, so the overlay
// never scores worse than a under the partition.Score total order up to
// float re-association; the caller compares the recomputed scores and
// keeps a when the overlay fails to strictly improve. Deterministic
// because it is serial: a fixed traversal of a fixed schedule on the
// coordinator.
const combineRounds = 2

func (scr *memberScratch) combine(a, b, base []int32, c [][]float64, par memberParams) (score partition.Score, diff, moves int, gain float64) {
	copy(scr.p.Assign, a)
	scr.ix.Rebuild()
	scr.reloadWeights()

	for i := range scr.inPart {
		scr.inPart[i] = false
	}
	scr.boundary = scr.boundary[:0]
	for v := int32(0); v < scr.g.NumVertices(); v++ {
		if a[v] != b[v] {
			scr.boundary = append(scr.boundary, v)
			scr.inPart[a[v]] = true
			scr.inPart[b[v]] = true
		}
	}
	diff = len(scr.boundary)
	score = partition.ComputeScoreInto(scr.g, scr.p, base, c, par.alpha, scr.wbuf)
	if diff == 0 {
		return score, diff, 0, 0
	}

	scr.frontier = graph.ExpandFrontier(scr.g, scr.boundary, 1, scr.frontier[:0])
	scr.mask.ClearAll()
	for _, v := range scr.frontier {
		scr.mask.Set(v)
	}
	scr.parts = scr.parts[:0]
	for q := int32(0); q < scr.p.K; q++ {
		if scr.inPart[q] {
			scr.parts = append(scr.parts, q)
		}
	}

	for r := 0; r < combineRounds; r++ {
		roundMoves := 0
		for i := 0; i < len(scr.parts); i++ {
			for j := i + 1; j < len(scr.parts); j++ {
				res := scr.ref.RefinePair(base, scr.parts[i], scr.parts[j], c, scr.loads, par.maxLoad, scr.mask)
				roundMoves += res.Moves
				gain += res.Gain
			}
		}
		moves += roundMoves
		if roundMoves == 0 {
			break
		}
	}
	if moves > 0 {
		score = partition.ComputeScoreInto(scr.g, scr.p, base, c, par.alpha, scr.wbuf)
	}
	return score, diff, moves, gain
}
