// Package metis implements a from-scratch multilevel graph partitioner in
// the style of METIS (the paper's "gold standard" baseline): heavy-edge
// matching coarsening, greedy graph-growing initial bisection, boundary
// Fiduccia–Mattheyses refinement during uncoarsening, and recursive
// bisection for k-way decompositions. It honors vertex weights (load),
// vertex sizes, and edge weights. Its configurable imbalance tolerance
// (Options.Eps) bounds the refinement moves of each bisection, not the
// balance of the output.
package metis

import (
	"math/rand"
	"runtime"

	"paragon/internal/graph"
)

// level is one rung of the multilevel hierarchy: the coarse graph plus
// the mapping from the finer graph's vertices onto it.
type level struct {
	g    *graph.Graph
	map_ []int32 // finer vertex -> coarse vertex; nil for the original graph
}

// coarsen builds the hierarchy from g down to a graph with at most
// targetSize vertices (or until matching stops making progress). The
// returned slice starts with the original graph.
func coarsen(g *graph.Graph, targetSize int32, rng *rand.Rand) []level {
	levels := []level{{g: g}}
	cur := g
	for cur.NumVertices() > targetSize {
		match := heavyEdgeMatching(cur, rng)
		coarse, cmap := contract(cur, match)
		// Stop if matching no longer shrinks the graph enough (dense or
		// star-like remainders).
		if float64(coarse.NumVertices()) > 0.95*float64(cur.NumVertices()) {
			break
		}
		levels = append(levels, level{g: coarse, map_: cmap})
		cur = coarse
	}
	return levels
}

// heavyEdgeMatching visits vertices in random order and matches each
// unmatched vertex with its unmatched neighbor of maximal edge weight
// (ties to the lower-degree neighbor to keep coarse degrees small).
// Unmatched leftovers are matched with themselves.
func heavyEdgeMatching(g *graph.Graph, rng *rand.Rand) []int32 {
	n := g.NumVertices()
	match := make([]int32, n)
	for i := range match {
		match[i] = -1
	}
	order := rng.Perm(int(n))
	for _, vi := range order {
		v := int32(vi)
		if match[v] >= 0 {
			continue
		}
		adj := g.Neighbors(v)
		w := g.EdgeWeights(v)
		best := int32(-1)
		bestW := int32(-1)
		for i, u := range adj {
			if match[u] >= 0 {
				continue
			}
			if w[i] > bestW || (w[i] == bestW && best >= 0 && g.Degree(u) < g.Degree(best)) {
				best, bestW = u, w[i]
			}
		}
		if best >= 0 {
			match[v] = best
			match[best] = v
		} else {
			match[v] = v
		}
	}
	return match
}

// contract merges matched pairs into coarse vertices, summing vertex
// weights and sizes and merging parallel edges by weight. It returns the
// coarse graph and the fine→coarse map.
//
// Coarse vertex cv's row is the merge of its one or two constituents'
// rows through cmap: slot[cu] remembers where cu sits in the row being
// merged, so a parallel edge adds its weight in place and the edge
// between the two constituents is dropped. The merged rows go through
// graph.FromSymmetricRows, runtime.GOMAXPROCS(0) workers wide, which
// sorts each one — the same CSR at every worker count, and the one
// graph.Builder makes when fed every fine edge once.
func contract(g *graph.Graph, match []int32) (*graph.Graph, []int32) {
	n := g.NumVertices()
	cmap := make([]int32, n)
	for i := range cmap {
		cmap[i] = -1
	}
	first := make([]int32, 0, n) // coarse vertex -> its lower-id constituent
	for v := int32(0); v < n; v++ {
		if cmap[v] >= 0 {
			continue
		}
		cv := int32(len(first))
		cmap[v], cmap[match[v]] = cv, cv
		first = append(first, v)
	}
	coarseN := int32(len(first))
	vwgt := make([]int32, coarseN)
	vsize := make([]int32, coarseN)
	xadj := make([]int64, coarseN+1)
	adj := make([]int32, 0, g.NumHalfEdges())
	ewgt := make([]int32, 0, g.NumHalfEdges())
	slot := make([]int64, coarseN)
	for i := range slot {
		slot[i] = -1
	}
	for cv, v := range first {
		members := [2]int32{v, match[v]}
		k := 2
		if members[1] == v {
			k = 1
		}
		var wgt, size int64
		start := int64(len(adj))
		for _, x := range members[:k] {
			wgt += int64(g.VertexWeight(x))
			size += int64(g.VertexSize(x))
			w := g.EdgeWeights(x)
			for j, y := range g.Neighbors(x) {
				cu := cmap[y]
				switch {
				case cu == int32(cv): // the edge between the two constituents
				case slot[cu] >= start:
					ewgt[slot[cu]] += w[j]
				default:
					slot[cu] = int64(len(adj))
					adj = append(adj, cu)
					ewgt = append(ewgt, w[j])
				}
			}
		}
		vwgt[cv], vsize[cv] = clampI32(wgt), clampI32(size)
		xadj[cv+1] = int64(len(adj))
	}
	coarse := graph.FromSymmetricRows(coarseN, vwgt, vsize,
		func(cv int32) int32 { return int32(xadj[cv+1] - xadj[cv]) },
		func(cv int32, to, w []int32) {
			copy(to, adj[xadj[cv]:xadj[cv+1]])
			copy(w, ewgt[xadj[cv]:xadj[cv+1]])
		}, runtime.GOMAXPROCS(0))
	return coarse, cmap
}

func clampI32(x int64) int32 {
	const max = int64(^uint32(0) >> 1)
	if x > max {
		return int32(max)
	}
	if x < 1 {
		return 1
	}
	return int32(x)
}
