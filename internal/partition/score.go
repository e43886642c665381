package partition

import "paragon/internal/graph"

// Score bundles the §3 objective of one decomposition: the Eq. 2
// communication cost, the Eq. 3 migration cost against a reference
// assignment, the Eq. 4 skewness, and the raw edge cut. It is the shared
// scorer behind Evaluate, the refinement Stats, and portfolio selection.
// Comm and Mig are exact, in objective units (DESIGN.md §10); CommCost
// and MigrationCost are the same values converted for reporting.
type Score struct {
	EdgeCut       int64
	Comm, Mig     int64
	CommCost      float64 // Eq. 2: α · Σ_{cut edges} w(e) · c(Pi, Pj)
	MigrationCost float64 // Eq. 3 vs the orig assignment; 0 when orig is nil
	Skewness      float64 // Eq. 4: max w(Pi) / avg w(Pi)
}

// Cost is the paper's composite objective (Eq. 1 with the balance
// constraint handled separately): communication plus migration cost.
func (s Score) Cost() float64 { return s.CommCost + s.MigrationCost }

// Better reports whether s strictly precedes o in the deterministic
// total order used for portfolio selection: lower exact cost Comm + Mig
// first, then lower EdgeCut, then lower Skewness. Full ties are NOT
// better, so selecting with strict Better over ascending member ids
// yields the lowest id — the "score, then member id" total order without
// a separate tie field.
func (s Score) Better(o Score) bool {
	if a, b := s.Comm+s.Mig, o.Comm+o.Mig; a != b {
		return a < b
	}
	if s.EdgeCut != o.EdgeCut {
		return s.EdgeCut < o.EdgeCut
	}
	return s.Skewness < o.Skewness
}

// ComputeScore evaluates all Score metrics in one vertex sweep. orig is
// the Eq. 3 reference assignment (the pre-refinement decomposition);
// nil means "no migration", scoring the decomposition in place. c is
// quantised on the objective grid first and must pass CheckCosts.
func ComputeScore(g *graph.Graph, p *Partitioning, orig []int32, c [][]float64, alpha float64) Score {
	cs, err := CheckCosts(c, p.K)
	if err != nil {
		panic("partition: " + err.Error())
	}
	return ComputeScoreInto(g, p, orig, cs, Alpha(alpha), make([]int64, p.K))
}

// ComputeScoreInto is ComputeScore on a quantised matrix and α
// (CheckCosts, Alpha), with a caller-provided weight buffer of length
// >= K (overwritten here) — the allocation-free form used by the
// portfolio workers, which score every member on pooled scratch.
func ComputeScoreInto(g *graph.Graph, p *Partitioning, orig []int32, cs *Costs, alpha int64, wbuf []int64) Score {
	w := wbuf[:p.K]
	clear(w)
	var cut, comm, mig int64
	for v := int32(0); v < g.NumVertices(); v++ {
		pv := p.Assign[v]
		w[pv] += int64(g.VertexWeight(v))
		if orig != nil {
			if from := orig[v]; from != pv {
				mig += int64(g.VertexSize(v)) * cs.At(from, pv)
			}
		}
		row := cs.Row(pv)
		adj := g.Neighbors(v)
		ew := g.EdgeWeights(v)
		for i, u := range adj {
			if v < u {
				if pu := p.Assign[u]; pu != pv {
					cut += int64(ew[i])
					comm += int64(ew[i]) * row[pu]
				}
			}
		}
	}
	s := Score{EdgeCut: cut, Comm: alpha * comm, Mig: mig << AlphaBits, Skewness: SkewnessOf(w)}
	s.CommCost, s.MigrationCost = cs.Real(s.Comm), cs.Real(s.Mig)
	return s
}
