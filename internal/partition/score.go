package partition

import "paragon/internal/graph"

// Score bundles the §3 objective of one decomposition: the Eq. 2
// communication cost, the Eq. 3 migration cost against a reference
// assignment, the Eq. 4 skewness, and the raw edge cut. It is the shared
// scorer behind Evaluate, the refinement Stats, and portfolio selection —
// one accumulation order, so every consumer sees bit-identical floats.
type Score struct {
	EdgeCut       int64
	CommCost      float64 // Eq. 2: α · Σ_{cut edges} w(e) · c(Pi, Pj)
	MigrationCost float64 // Eq. 3 vs the orig assignment; 0 when orig is nil
	Skewness      float64 // Eq. 4: max w(Pi) / avg w(Pi)
}

// Cost is the paper's composite objective (Eq. 1 with the balance
// constraint handled separately): communication plus migration cost.
func (s Score) Cost() float64 { return s.CommCost + s.MigrationCost }

// Better reports whether s strictly precedes o in the deterministic
// total order used for portfolio selection: lower Cost first, then lower
// EdgeCut, then lower Skewness. Full ties are NOT better, so selecting
// with strict Better over ascending member ids yields the lowest id —
// the "score, then member id" total order without a separate tie field.
func (s Score) Better(o Score) bool {
	if s.Cost() != o.Cost() {
		return s.Cost() < o.Cost()
	}
	if s.EdgeCut != o.EdgeCut {
		return s.EdgeCut < o.EdgeCut
	}
	return s.Skewness < o.Skewness
}

// ComputeScore evaluates all Score metrics in one vertex sweep. orig is
// the Eq. 3 reference assignment (the pre-refinement decomposition);
// nil means "no migration", scoring the decomposition in place. The cost
// matrix c must be at least K×K.
//
// Each accumulator folds in exactly the order of the corresponding
// standalone metric function (EdgeCut, CommCost, MigrationCost,
// Skewness): a single ascending vertex loop with adjacency-order inner
// folds. The per-metric results are therefore bitwise identical to the
// standalone functions — regression-tested in score_test.go — which is
// what lets Evaluate, Refine's Stats, and portfolio selection share one
// scorer without perturbing any golden value.
func ComputeScore(g *graph.Graph, p *Partitioning, orig []int32, c [][]float64, alpha float64) Score {
	return ComputeScoreInto(g, p, orig, c, alpha, make([]int64, p.K))
}

// ComputeScoreInto is ComputeScore with a caller-provided weight buffer
// of length >= K (overwritten here) — the allocation-free form used by
// the portfolio workers, which score every member on pooled scratch.
func ComputeScoreInto(g *graph.Graph, p *Partitioning, orig []int32, c [][]float64, alpha float64, wbuf []int64) Score {
	w := wbuf[:p.K]
	for i := range w {
		w[i] = 0
	}
	var (
		cut  int64
		comm float64
		mig  float64
	)
	for v := int32(0); v < g.NumVertices(); v++ {
		pv := p.Assign[v]
		w[pv] += int64(g.VertexWeight(v))
		if orig != nil {
			if from := orig[v]; from != pv {
				mig += float64(float64(g.VertexSize(v)) * c[from][pv])
			}
		}
		adj := g.Neighbors(v)
		ew := g.EdgeWeights(v)
		for i, u := range adj {
			if v < u {
				if pu := p.Assign[u]; pu != pv {
					cut += int64(ew[i])
					comm += float64(float64(ew[i]) * c[pv][pu])
				}
			}
		}
	}
	var sum, max int64
	for _, wi := range w {
		sum += wi
		if wi > max {
			max = wi
		}
	}
	skew := 1.0
	if sum != 0 {
		skew = float64(max) / (float64(sum) / float64(p.K))
	}
	return Score{
		EdgeCut:       cut,
		CommCost:      alpha * comm,
		MigrationCost: mig,
		Skewness:      skew,
	}
}
