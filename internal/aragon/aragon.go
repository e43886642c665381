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
// costs.
package aragon

import (
	"fmt"

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
	// BadMoveLimit stops a pair refinement after this many consecutive
	// non-improving moves (default 64).
	BadMoveLimit int
}

// WithDefaults fills in the paper's default parameters.
func (c Config) WithDefaults() Config {
	if c.Alpha == 0 {
		c.Alpha = 10
	}
	if c.MaxImbalance == 0 {
		c.MaxImbalance = 0.02
	}
	if c.BadMoveLimit == 0 {
		c.BadMoveLimit = 64
	}
	return c
}

// Result summarizes one refinement.
type Result struct {
	Moves     int     // vertices whose partition changed
	Gain      float64 // total gain realized (cost reduction, Eq. 5 sum)
	PairsSeen int     // partition pairs refined
}

// Gain computes Eq. 5 for moving v from its current partition to
// partition j, given the original decomposition orig (for the migration
// term) and the cost matrix c. Exposed for tests and for PARAGON's group
// refinement.
func Gain(g *graph.Graph, p *partition.Partitioning, orig []int32, v, j int32, c [][]float64, alpha float64) float64 {
	i := p.Assign[v]
	if i == j {
		return 0
	}
	dext := partition.ExternalDegrees(g, p, v)
	return gainFromDegrees(g, dext, orig, v, i, j, c, alpha)
}

// gainFromDegrees computes Eq. 5 given precomputed per-partition external
// degrees for v.
func gainFromDegrees(g *graph.Graph, dext []int64, orig []int32, v, i, j int32, c [][]float64, alpha float64) float64 {
	// Eq. 6: impact on the (Pi, Pj) cut.
	gStd := alpha * float64(dext[j]-dext[i]) * c[i][j]
	// Eq. 8: impact on v's communication with every other partition.
	var gTopo float64
	for k := int32(0); k < int32(len(dext)); k++ {
		if k == i || k == j || dext[k] == 0 {
			continue
		}
		gTopo += float64(dext[k]) * (c[i][k] - c[j][k])
	}
	gTopo *= alpha
	// Eq. 9: impact on migration cost relative to the original owner.
	k0 := orig[v]
	gMig := float64(g.VertexSize(v)) * (c[i][k0] - c[j][k0])
	return gStd + gTopo + gMig
}

// Refine runs full ARAGON: it applies RefinePair to every pair of the
// n-way decomposition sequentially and returns the aggregate result. p is
// modified in place; the original assignment is captured up front as the
// migration reference.
func Refine(g *graph.Graph, p *partition.Partitioning, c [][]float64, cfg Config) (Result, error) {
	if err := p.Validate(g); err != nil {
		return Result{}, fmt.Errorf("aragon: %w", err)
	}
	if err := partition.CheckCosts(c, p.K); err != nil {
		return Result{}, fmt.Errorf("aragon: %w", err)
	}
	cfg = cfg.WithDefaults()
	orig := append([]int32(nil), p.Assign...)
	loads := p.Weights(g)
	maxLoad := partition.BalanceBound(g, p.K, cfg.MaxImbalance)
	// One index serves all k(k−1)/2 pairs: every move (and rollback)
	// delta-maintains it, so per-pair candidate enumeration is
	// O(|P_i| + |P_j|) instead of a full-vertex scan.
	ref := NewRefiner(g, partition.BuildIndex(g, p), cfg)
	var total Result
	for i := int32(0); i < p.K; i++ {
		for j := i + 1; j < p.K; j++ {
			r := ref.RefinePair(orig, i, j, c, loads, maxLoad, nil)
			total.Moves += r.Moves
			total.Gain += r.Gain
			total.PairsSeen += r.PairsSeen
		}
	}
	return total, nil
}

// floatHeap is a lazy max-heap over candidate indices keyed by float
// gain, with stale-entry invalidation like the metis gain heap.
type floatHeap struct {
	idx []int32
	g   []float64
}

func newFloatHeap(capHint int) floatHeap {
	return floatHeap{idx: make([]int32, 0, capHint), g: make([]float64, 0, capHint)}
}

func (h *floatHeap) len() int { return len(h.idx) }

// reset empties the heap, keeping its backing storage for reuse.
func (h *floatHeap) reset() {
	h.idx = h.idx[:0]
	h.g = h.g[:0]
}

func (h *floatHeap) push(i int32, gain float64) {
	h.idx = append(h.idx, i)
	h.g = append(h.g, gain)
	c := len(h.idx) - 1
	for c > 0 {
		p := (c - 1) / 2
		if h.g[p] >= h.g[c] {
			break
		}
		h.swap(p, c)
		c = p
	}
}

func (h *floatHeap) pop() (int32, float64) {
	i, g := h.idx[0], h.g[0]
	last := len(h.idx) - 1
	h.idx[0], h.g[0] = h.idx[last], h.g[last]
	h.idx, h.g = h.idx[:last], h.g[:last]
	c := 0
	for {
		l, r, s := 2*c+1, 2*c+2, c
		if l < last && h.g[l] > h.g[s] {
			s = l
		}
		if r < last && h.g[r] > h.g[s] {
			s = r
		}
		if s == c {
			break
		}
		h.swap(c, s)
		c = s
	}
	return i, g
}

func (h *floatHeap) popValid(gains []float64, moved []bool) (int32, float64, bool) {
	for h.len() > 0 {
		i, g := h.pop()
		if moved[i] || gains[i] != g {
			continue
		}
		return i, g, true
	}
	return 0, 0, false
}

func (h *floatHeap) swap(i, j int) {
	h.idx[i], h.idx[j] = h.idx[j], h.idx[i]
	h.g[i], h.g[j] = h.g[j], h.g[i]
}
