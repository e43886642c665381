package metis

import (
	"fmt"
	"math/rand"

	"paragon/internal/graph"
	"paragon/internal/partition"
)

// Direct k-way multilevel partitioning (the kmetis mode): coarsen once,
// partition the coarsest graph k ways by recursive bisection, then
// project back refining with greedy k-way boundary moves at every level.
// Compared to pure recursive bisection it coarsens the graph once
// instead of once per bisection, which is markedly faster for large k,
// at a small quality cost on some inputs — the classic METIS trade-off.

// PartitionKWay computes a k-way decomposition with the direct k-way
// multilevel strategy.
func PartitionKWay(g *graph.Graph, k int32, opt Options) *partition.Partitioning {
	if k < 1 {
		panic(fmt.Sprintf("metis: k = %d", k))
	}
	opt = opt.withDefaults()
	if k == 1 || g.NumVertices() == 0 {
		return partition.New(max32(k, 1), g.NumVertices())
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	// Coarsen once, to a size proportional to k so the coarsest graph
	// still has enough vertices per part.
	target := max(initTries*30*k, coarsenTo)
	levels := coarsen(g, target, rng)
	coarsest := levels[len(levels)-1].g

	// Initial k-way partition of the coarsest graph via recursive
	// bisection (cheap at this size).
	cp := Partition(coarsest, k, Options{Eps: opt.Eps, Seed: opt.Seed + 1})

	// Project back, refining k-way at every level.
	assign := cp.Assign
	for li := len(levels) - 1; li >= 1; li-- {
		fine := levels[li-1].g
		cmap := levels[li].map_
		fineAssign := make([]int32, fine.NumVertices())
		for v := range fineAssign {
			fineAssign[v] = assign[cmap[v]]
		}
		assign = fineAssign
		p := &partition.Partitioning{K: k, Assign: assign}
		bound := partition.BalanceBound(fine, k, opt.Eps)
		RefineKWay(fine, p, bound, refinePasses)
	}
	out := &partition.Partitioning{K: k, Assign: assign}
	// The input graph itself is levels[0]; if no coarsening happened the
	// assignment came straight from Partition and is already refined.
	if len(levels) == 1 {
		return cp
	}
	return out
}

// RefineKWay sweeps the vertices of g in id order for at most passes
// passes, moving each to the adjacent partition with the highest positive
// cut gain while its load stays within bound (ties go to the partition
// seen first among v's neighbours), and stops after a pass that moves
// nothing. It is the greedy k-way refinement of k-way uncoarsening, and
// the cut repair of ParMETIS-style diffusion.
func RefineKWay(g *graph.Graph, p *partition.Partitioning, bound int64, passes int) {
	load := p.Weights(g)
	// aff[q] is v's edge weight into partition q ≠ Assign[v], nonzero
	// exactly for the partitions in cand, and zeroed again through cand
	// before the next vertex. Candidates keep first-seen neighbor order,
	// which fixes the tie order.
	aff := make([]int64, p.K)
	cand := make([]int32, 0, 8)
	for pass := 0; pass < passes; pass++ {
		improved := false
		for v := int32(0); v < g.NumVertices(); v++ {
			pv := p.Assign[v]
			adj := g.Neighbors(v)
			ew := g.EdgeWeights(v)
			var internal int64
			for _, q := range cand {
				aff[q] = 0
			}
			cand = cand[:0]
			for i, u := range adj {
				pu := p.Assign[u]
				if pu == pv {
					internal += int64(ew[i])
				} else {
					if aff[pu] == 0 { // edge weights are positive
						cand = append(cand, pu)
					}
					aff[pu] += int64(ew[i])
				}
			}
			if len(cand) == 0 {
				continue
			}
			w := int64(g.VertexWeight(v))
			best := int32(-1)
			var bestGain int64
			for _, pu := range cand {
				gain := aff[pu] - internal
				if gain > bestGain && load[pu]+w <= bound {
					best, bestGain = pu, gain
				}
			}
			if best >= 0 {
				p.Assign[v] = best
				load[pv] -= w
				load[best] += w
				improved = true
			}
		}
		if !improved {
			break
		}
	}
}

func max32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}
