// Package aragon implements ARAGON, the serial architecture-aware graph
// partition refinement algorithm of Zheng et al. (BigGraphs'14) that
// PARAGON parallelizes. ARAGON is a Fiduccia–Mattheyses variant operating
// on one partition pair (Pi, Pj) at a time: it repeatedly moves the
// vertex with maximal gain between the two partitions, where gain is the
// reduction in architecture-aware communication plus migration cost
// (Eq. 5 of the paper):
//
//	g(v) = g_std(v) + g_topo(v) + g_mig(v)
//
//	g_std  = α · (d_ext(v,Pj) − d_ext(v,Pi)) · c(Pi,Pj)          (Eq. 6)
//	g_topo = α · Σ_{k≠i,j} d_ext(v,Pk) · (c(Pi,Pk) − c(Pj,Pk))   (Eq. 8)
//	g_mig  = vs(v) · (c(Pi,Pk0) − c(Pj,Pk0)),  Pk0 = original owner (Eq. 9)
//
// Unlike standard FM (uniform costs), ARAGON must consider *all* boundary
// vertices of the pair — a vertex with no neighbor in the partner
// partition can still gain via g_topo and g_mig — and must visit all
// n(n−1)/2 partition pairs because any pair may improve under nonuniform
// costs. The serial sweep over all of them is paragon.RefineSerial: this
// package's Refiner on the wave engine, one pair per wave.
package aragon

import (
	"paragon/internal/graph"
	"paragon/internal/partition"
)

// Config tunes the refinement.
type Config struct {
	// Alpha is the relative importance of communication vs. migration
	// cost — the number of supersteps between refinements (default 10,
	// as in the paper's evaluation).
	Alpha float64
	// MaxImbalance is the allowed load imbalance eps (default 0.02).
	MaxImbalance float64
}

// badMoveLimit stops a pair refinement after this many consecutive
// non-improving moves.
const badMoveLimit = 64

// WithDefaults fills in the paper's default parameters.
func (c Config) WithDefaults() Config {
	if c.Alpha == 0 {
		c.Alpha = 10
	}
	if c.MaxImbalance == 0 {
		c.MaxImbalance = 0.02
	}
	return c
}

// Result summarizes one refinement. Gain is in objective units
// (partition.Costs.Real converts it, DESIGN.md §10).
type Result struct {
	Moves     int   // vertices whose partition changed
	Gain      int64 // total gain realized (cost reduction, Eq. 5 sum)
	PairsSeen int   // partition pairs refined
}

// Gain computes Eq. 5 for moving v from its current partition to
// partition j, given the original decomposition orig (for the migration
// term) and the cost matrix c — the dense reference evaluation, exposed
// for tests. c must pass partition.CheckCosts.
func Gain(g *graph.Graph, p *partition.Partitioning, orig []int32, v, j int32, c [][]float64, alpha float64) float64 {
	cs, err := partition.CheckCosts(c, p.K)
	if err != nil {
		panic("aragon: " + err.Error())
	}
	i := p.Assign[v]
	if i == j {
		return 0
	}
	dext := partition.ExternalDegrees(g, p, v)
	return cs.Real(gainFromDegrees(g, dext, orig, v, i, j, cs, partition.Alpha(alpha)))
}

// gainFromDegrees computes Eq. 5 on the objective grid given precomputed
// per-partition external degrees for v.
func gainFromDegrees(g *graph.Graph, dext []int64, orig []int32, v, i, j int32, cs *partition.Costs, alpha int64) int64 {
	ci, cj := cs.Row(i), cs.Row(j)
	// Eq. 6: impact on the (Pi, Pj) cut.
	gStd := alpha * (dext[j] - dext[i]) * ci[j]
	// Eq. 8: impact on v's communication with every other partition.
	var gTopo int64
	for k := range dext {
		if int32(k) != i && int32(k) != j {
			gTopo += dext[k] * (ci[k] - cj[k])
		}
	}
	// Eq. 9: impact on migration cost relative to the original owner.
	k0 := orig[v]
	gMig := (int64(g.VertexSize(v)) * (ci[k0] - cj[k0])) << partition.AlphaBits
	return gStd + alpha*gTopo + gMig
}
