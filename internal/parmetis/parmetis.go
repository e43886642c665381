// Package parmetis implements a ParMETIS-style adaptive graph
// repartitioner — the paper's multi-level repartitioning baseline
// (Tables 4–5, Figure 14). Two classic strategies are provided:
//
//   - ScratchRemap: partition the current graph from scratch with the
//     multilevel partitioner, then relabel the new partitions to maximize
//     overlap with the old decomposition, minimizing migration volume
//     (Schloegel, Karypis & Kumar, SC'00);
//   - Diffusion: keep the old decomposition, diffuse load from overloaded
//     to underloaded partitions across partition boundaries, then run a
//     greedy k-way boundary refinement to repair the edge cut.
//
// Like the original, the repartitioner is architecture-agnostic: it
// minimizes edge cut and migration, not hop-weighted communication.
package parmetis

import (
	"fmt"
	"sort"

	"paragon/internal/graph"
	"paragon/internal/metis"
	"paragon/internal/partition"
)

// Method selects the repartitioning strategy.
type Method int

const (
	// ScratchRemap repartitions from scratch and remaps labels.
	ScratchRemap Method = iota
	// Diffusion incrementally migrates load across partition borders.
	Diffusion
)

// Options configures Repartition.
type Options struct {
	Method Method
	// Eps is the imbalance tolerance (default 0.02).
	Eps float64
	// Seed drives the underlying multilevel partitioner.
	Seed int64
}

// refinePasses bounds the greedy boundary refinement passes of the
// Diffusion method.
const refinePasses = 4

func (o Options) withDefaults() Options {
	if o.Eps == 0 {
		o.Eps = 0.02
	}
	return o
}

// Repartition adapts the decomposition old of g (which must assign every
// vertex of g) to restore balance and cut quality, returning a new
// decomposition with the same number of partitions.
func Repartition(g *graph.Graph, old *partition.Partitioning, opt Options) (*partition.Partitioning, error) {
	if err := old.Validate(g); err != nil {
		return nil, fmt.Errorf("parmetis: old decomposition: %w", err)
	}
	opt = opt.withDefaults()
	switch opt.Method {
	case ScratchRemap:
		return scratchRemap(g, old, opt), nil
	case Diffusion:
		return diffusion(g, old, opt), nil
	default:
		return nil, fmt.Errorf("parmetis: unknown method %d", opt.Method)
	}
}

// scratchRemap partitions from scratch, then permutes the new labels so
// the label→label overlap (in vertex size, the migration mass) with the
// old decomposition is maximized greedily.
func scratchRemap(g *graph.Graph, old *partition.Partitioning, opt Options) *partition.Partitioning {
	k := old.K
	fresh := metis.Partition(g, k, metis.Options{Eps: opt.Eps, Seed: opt.Seed})
	// overlap[newLabel][oldLabel] = total vertex size shared.
	overlap := make([][]int64, k)
	for i := range overlap {
		overlap[i] = make([]int64, k)
	}
	for v := int32(0); v < g.NumVertices(); v++ {
		overlap[fresh.Assign[v]][old.Assign[v]] += int64(g.VertexSize(v))
	}
	relabel := greedyAssignment(overlap)
	out := partition.New(k, g.NumVertices())
	for v := range fresh.Assign {
		out.Assign[v] = relabel[fresh.Assign[v]]
	}
	return out
}

// greedyAssignment solves the label-matching problem greedily: process
// (new, old) pairs in decreasing overlap, committing each pair whose new
// and old labels are both free. Leftover labels are matched arbitrarily.
func greedyAssignment(overlap [][]int64) []int32 {
	k := len(overlap)
	type cell struct {
		n, o int32
		w    int64
	}
	cells := make([]cell, 0, k*k)
	for n := 0; n < k; n++ {
		for o := 0; o < k; o++ {
			if overlap[n][o] > 0 {
				cells = append(cells, cell{int32(n), int32(o), overlap[n][o]})
			}
		}
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].w != cells[j].w {
			return cells[i].w > cells[j].w
		}
		if cells[i].n != cells[j].n {
			return cells[i].n < cells[j].n
		}
		return cells[i].o < cells[j].o
	})
	relabel := make([]int32, k)
	for i := range relabel {
		relabel[i] = -1
	}
	usedOld := make([]bool, k)
	for _, c := range cells {
		if relabel[c.n] < 0 && !usedOld[c.o] {
			relabel[c.n] = c.o
			usedOld[c.o] = true
		}
	}
	for n := range relabel {
		if relabel[n] < 0 {
			for o := int32(0); o < int32(k); o++ {
				if !usedOld[o] {
					relabel[n] = o
					usedOld[o] = true
					break
				}
			}
		}
	}
	return relabel
}

// diffusion rebalances the old decomposition by moving boundary vertices
// out of overloaded partitions into underloaded neighbor partitions, then
// repairs the cut with greedy k-way boundary refinement under the balance
// bound.
func diffusion(g *graph.Graph, old *partition.Partitioning, opt Options) *partition.Partitioning {
	p := old.Clone()
	k := p.K
	bound := partition.BalanceBound(g, k, opt.Eps)
	load := p.Weights(g)
	aff, cand := make([]int64, k), make([]int32, 0, k)

	// Phase 1: load diffusion. Repeatedly take the most overloaded
	// partition and push its boundary vertices toward the least-loaded
	// neighbor partition until it fits (or no movable vertex remains).
	for iter := 0; iter < int(k)*4; iter++ {
		src := int32(-1)
		for i := int32(0); i < k; i++ {
			if load[i] > bound && (src < 0 || load[i] > load[src]) {
				src = i
			}
		}
		if src < 0 {
			break // balanced
		}
		moved := false
		for v := int32(0); v < g.NumVertices() && load[src] > bound; v++ {
			if p.Assign[v] != src {
				continue
			}
			// Prefer migrating to the neighbor partition with the most
			// affinity; fall back to the globally least-loaded partition.
			dst := bestUnderloadedNeighbor(g, p, v, load, bound, aff, cand)
			if dst < 0 {
				continue
			}
			w := int64(g.VertexWeight(v))
			p.Assign[v] = dst
			load[src] -= w
			load[dst] += w
			moved = true
		}
		if !moved {
			// Force progress: no boundary-adjacent target exists (e.g. a
			// fully collapsed decomposition). Spill vertices one at a
			// time to whichever partition is currently least loaded.
			for v := int32(0); v < g.NumVertices() && load[src] > bound; v++ {
				if p.Assign[v] != src {
					continue
				}
				dst := int32(0)
				for i := int32(1); i < k; i++ {
					if load[i] < load[dst] {
						dst = i
					}
				}
				if dst == src {
					break
				}
				w := int64(g.VertexWeight(v))
				p.Assign[v] = dst
				load[src] -= w
				load[dst] += w
			}
		}
	}

	// Phase 2: greedy k-way boundary refinement (cut repair).
	metis.RefineKWay(g, p, bound, refinePasses)
	return p
}

// bestUnderloadedNeighbor returns the partition other than v's own that
// holds most of v's edge weight and still fits v under bound — the first
// seen among v's neighbours on ties — or -1 when none fits. aff is a
// zeroed k-length row, left zeroed; cand is empty scratch of capacity k.
func bestUnderloadedNeighbor(g *graph.Graph, p *partition.Partitioning, v int32, load []int64, bound int64, aff []int64, cand []int32) int32 {
	ew := g.EdgeWeights(v)
	for i, u := range g.Neighbors(v) {
		if pu := p.Assign[u]; pu != p.Assign[v] {
			if aff[pu] == 0 { // edge weights are positive
				cand = append(cand, pu)
			}
			aff[pu] += int64(ew[i])
		}
	}
	w := int64(g.VertexWeight(v))
	best := int32(-1)
	var bestAff int64 = -1
	for _, pu := range cand {
		if a := aff[pu]; load[pu]+w <= bound && a > bestAff {
			best, bestAff = pu, a
		}
		aff[pu] = 0
	}
	return best
}
