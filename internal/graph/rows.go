package graph

import (
	"fmt"
	"slices"
	"sort"
	"sync"
)

// FromSymmetricRows builds a CSR graph from an adjacency source that is
// already symmetric and duplicate-free — a live adjacency being frozen,
// not an edge stream being deduplicated (that is Builder's job). degree(v)
// is the length of v's row and row(v, to, w) writes v's neighbors and
// their edge weights, in any order, into the two slices of that length;
// vwgt and vsize (length n) are copied.
//
// The degrees are prefix-summed into the offset table, [0, n) is split
// into `workers` contiguous ranges of near-equal half-edge count
// (VertexRanges), and each worker copies its rows straight into their
// final CSR regions and sorts each one ascending by neighbor. Neighbor ids
// are unique within a row, so that order is total and the result is
// byte-identical for every worker count — and to Builder.Build fed the
// same edges. row is called from the workers — once per vertex, different
// vertices concurrently — so it must not write shared state.
//
// Every row entry gets the checks Builder.AddWeightedEdge makes — neighbor
// in range, positive weight — plus the two inputs Build would paper over:
// a self-loop, or the same neighbor twice in one row. Any of them panics
// after the workers have joined, naming the lowest offending vertex: each
// indicates a bug in the structure being frozen. Symmetry itself is the
// caller's contract (Validate checks it, in O(E·log E)).
func FromSymmetricRows(n int32, vwgt, vsize []int32, degree func(v int32) int32, row func(v int32, to, w []int32), workers int) *Graph {
	if int32(len(vwgt)) != n || int32(len(vsize)) != n {
		panic(fmt.Sprintf("graph: %d vertex weights and %d sizes for %d vertices", len(vwgt), len(vsize), n))
	}
	g := &Graph{
		xadj:  make([]int64, int64(n)+1),
		vwgt:  append([]int32(nil), vwgt...),
		vsize: append([]int32(nil), vsize...),
	}
	for v := int32(0); v < n; v++ {
		d := degree(v)
		if d < 0 {
			panic(fmt.Sprintf("graph: negative degree %d for vertex %d", d, v))
		}
		g.xadj[v+1] = g.xadj[v] + int64(d)
	}
	g.adj = make([]int32, g.xadj[n])
	g.ewgt = make([]int32, g.xadj[n])

	bounds := g.VertexRanges(workers)
	bad := make([]string, len(bounds)-1)
	var wg sync.WaitGroup
	for i := range bad {
		wg.Add(1)
		go func(i int, lo, hi int32) {
			defer wg.Done()
			bad[i] = g.fillRows(lo, hi, row)
		}(i, bounds[i], bounds[i+1])
	}
	wg.Wait()
	for _, msg := range bad {
		if msg != "" {
			panic(msg)
		}
	}
	return g
}

// fillRows fills and sorts the rows of [lo, hi) in place and returns the
// first violation it meets, "" when there is none. Rows are disjoint
// regions of adj/ewgt, so concurrent calls on disjoint ranges share
// nothing they write.
func (g *Graph) fillRows(lo, hi int32, row func(v int32, to, w []int32)) string {
	n := g.NumVertices()
	var keys []uint64 // (neighbor << 32 | weight) per entry of the row being sorted
	for v := lo; v < hi; v++ {
		to := g.adj[g.xadj[v]:g.xadj[v+1]]
		w := g.ewgt[g.xadj[v]:g.xadj[v+1]]
		row(v, to, w)
		keys = keys[:0]
		for i, u := range to {
			switch {
			case u < 0 || u >= n:
				return fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", v, u, n)
			case w[i] <= 0:
				return fmt.Sprintf("graph: non-positive edge weight %d on (%d,%d)", w[i], v, u)
			case u == v:
				return fmt.Sprintf("graph: self-loop on %d", v)
			}
			keys = append(keys, uint64(u)<<32|uint64(w[i]))
		}
		slices.Sort(keys)
		for i, key := range keys {
			if i > 0 && key>>32 == keys[i-1]>>32 {
				return fmt.Sprintf("graph: duplicate edge (%d,%d)", v, key>>32)
			}
			//lint:ignore sharedwrite row v's CSR region belongs to the one worker whose [lo, hi) holds v
			to[i], w[i] = int32(key>>32), int32(uint32(key))
		}
	}
	return ""
}

// VertexRanges splits [0, n) into parts contiguous vertex ranges holding
// near-equal numbers of half-edges — the unit of work of every per-row
// pass — and returns the parts+1 boundaries: range i is [b[i], b[i+1]).
// A vertex is never split, so a hub heavier than total/parts leaves its
// neighbors' ranges short.
func (g *Graph) VertexRanges(parts int) []int32 {
	parts = max(parts, 1)
	n := g.NumVertices()
	b := make([]int32, parts+1)
	b[parts] = n
	for i := 1; i < parts; i++ {
		target := g.NumHalfEdges() * int64(i) / int64(parts)
		b[i] = int32(sort.Search(int(n), func(v int) bool { return g.xadj[v] >= target }))
	}
	return b
}
