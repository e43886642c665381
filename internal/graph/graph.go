// Package graph provides the in-memory graph substrate used throughout the
// PARAGON reproduction: a compact CSR (compressed sparse row) representation
// of an undirected graph with integer vertex weights, vertex sizes, and edge
// weights, plus builders, accessors, and structural utilities.
//
// Conventions follow the METIS input model that the paper builds on:
//
//   - vertices are dense 0-based int32 identifiers;
//   - the graph is undirected and stored symmetrically — every edge {u,v}
//     appears in both adjacency lists with the same weight;
//   - vertex weight w(v) models the computational requirement of v,
//   - vertex size vs(v) models the amount of application data carried by v
//     (the quantity that must move when v migrates, Eq. 3 of the paper),
//   - edge weight w(e) models the amount of data communicated along e per
//     superstep (Eq. 2 of the paper).
package graph

import (
	"fmt"
	"slices"
)

// Graph is an immutable undirected graph in CSR form. Use a Builder to
// construct one. The zero value is an empty graph.
type Graph struct {
	xadj  []int64 // length n+1; adjacency list of v is adj[xadj[v]:xadj[v+1]]
	adj   []int32 // concatenated neighbor lists
	ewgt  []int32 // parallel to adj; weight of each half-edge
	vwgt  []int32 // length n; computational weight of each vertex
	vsize []int32 // length n; data size of each vertex

	// Totals of ewgt (each undirected edge once), vwgt and vsize, set by
	// every constructor in a pass that already reads the weights.
	ewTotal, vwTotal, vsTotal int64
}

// NumVertices returns the number of vertices in g.
func (g *Graph) NumVertices() int32 {
	if g == nil || len(g.xadj) == 0 {
		return 0
	}
	return int32(len(g.xadj) - 1)
}

// NumEdges returns the number of undirected edges in g. Each undirected
// edge {u,v} counts once even though it is stored twice.
func (g *Graph) NumEdges() int64 {
	if g == nil || len(g.xadj) == 0 {
		return 0
	}
	return int64(len(g.adj)) / 2
}

// NumHalfEdges returns the number of directed (stored) half-edges, i.e.
// 2·NumEdges for a symmetric graph.
func (g *Graph) NumHalfEdges() int64 { return int64(len(g.adj)) }

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v int32) int32 {
	return int32(g.xadj[v+1] - g.xadj[v])
}

// Neighbors returns the adjacency slice of v. The returned slice aliases
// internal storage and must not be modified.
func (g *Graph) Neighbors(v int32) []int32 {
	return g.adj[g.xadj[v]:g.xadj[v+1]]
}

// EdgeWeights returns the weights parallel to Neighbors(v). The returned
// slice aliases internal storage and must not be modified.
func (g *Graph) EdgeWeights(v int32) []int32 {
	return g.ewgt[g.xadj[v]:g.xadj[v+1]]
}

// VertexWeight returns w(v), the computational requirement of v.
func (g *Graph) VertexWeight(v int32) int32 { return g.vwgt[v] }

// VertexSize returns vs(v), the amount of application data on v.
func (g *Graph) VertexSize(v int32) int32 { return g.vsize[v] }

// TotalVertexWeight returns the sum of all vertex weights.
func (g *Graph) TotalVertexWeight() int64 { return g.vwTotal }

// TotalVertexSize returns the sum of all vertex sizes.
func (g *Graph) TotalVertexSize() int64 { return g.vsTotal }

// TotalEdgeWeight returns the sum of w(e) over undirected edges.
func (g *Graph) TotalEdgeWeight() int64 { return g.ewTotal }

// sum64 sums xs, for the totals of a graph whose arrays were read rather
// than built.
func sum64(xs []int32) (t int64) {
	for _, x := range xs {
		t += int64(x)
	}
	return t
}

// EdgeWeightBetween returns the weight of edge {u,v}, or 0 when the edge
// does not exist. It binary-searches the shorter adjacency list, which
// every constructor sorts (and Validate demands).
func (g *Graph) EdgeWeightBetween(u, v int32) int32 {
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	if i, ok := slices.BinarySearch(g.Neighbors(u), v); ok {
		return g.EdgeWeights(u)[i]
	}
	return 0
}

// HasEdge reports whether the edge {u,v} exists.
func (g *Graph) HasEdge(u, v int32) bool { return g.EdgeWeightBetween(u, v) != 0 }

// MaxDegree returns the largest vertex degree in g.
func (g *Graph) MaxDegree() int32 {
	var m int32
	for v := int32(0); v < g.NumVertices(); v++ {
		if d := g.Degree(v); d > m {
			m = d
		}
	}
	return m
}

// AvgDegree returns the mean vertex degree.
func (g *Graph) AvgDegree() float64 {
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	return float64(g.NumHalfEdges()) / float64(n)
}

// Validate checks internal CSR invariants: monotone xadj, neighbor ids in
// range, strictly ascending rows (so no repeated neighbor), no
// self-loops, positive weights, and symmetry of both structure and
// weights. Every constructor sorts its rows, so only a hand-written
// binary file can fail the order check. It is O(V+E·logE) and intended
// for tests and tooling.
func (g *Graph) Validate() error {
	n := g.NumVertices()
	if int64(len(g.xadj)) != int64(n)+1 && n != 0 {
		return fmt.Errorf("graph: xadj length %d != n+1 (%d)", len(g.xadj), n+1)
	}
	if len(g.adj) != len(g.ewgt) {
		return fmt.Errorf("graph: adj/ewgt length mismatch %d vs %d", len(g.adj), len(g.ewgt))
	}
	if int32(len(g.vwgt)) != n || int32(len(g.vsize)) != n {
		return fmt.Errorf("graph: vertex attribute length mismatch")
	}
	// Offset sanity first: every later check indexes adj via xadj, so a
	// corrupt offset table must be rejected before it can be followed.
	if len(g.xadj) > 0 && g.xadj[0] != 0 { // n = 0 too: a binary file still carries xadj[0]
		return fmt.Errorf("graph: xadj[0] = %d, want 0", g.xadj[0])
	}
	if n > 0 {
		if g.xadj[n] != int64(len(g.adj)) {
			return fmt.Errorf("graph: xadj[n] = %d, want adj length %d", g.xadj[n], len(g.adj))
		}
	} else if len(g.adj) != 0 {
		return fmt.Errorf("graph: %d half-edges with no vertices", len(g.adj))
	}
	// The whole offset table must be verified before any adj dereference:
	// a monotonicity break at v+2 would otherwise be reachable through
	// vertex v+1's adjacency scan.
	for v := int32(0); v < n; v++ {
		if g.xadj[v] < 0 || g.xadj[v] > g.xadj[v+1] {
			return fmt.Errorf("graph: xadj not monotone at %d", v)
		}
	}
	for v := int32(0); v < n; v++ {
		if g.vwgt[v] < 0 || g.vsize[v] < 0 {
			return fmt.Errorf("graph: negative vertex weight/size at %d", v)
		}
		prev := int32(-1)
		for i := g.xadj[v]; i < g.xadj[v+1]; i++ {
			u := g.adj[i]
			if u < 0 || u >= n {
				return fmt.Errorf("graph: neighbor %d of %d out of range", u, v)
			}
			if u == v {
				return fmt.Errorf("graph: self-loop at %d", v)
			}
			if g.ewgt[i] <= 0 {
				return fmt.Errorf("graph: non-positive edge weight on (%d,%d)", v, u)
			}
			if u <= prev {
				return fmt.Errorf("graph: row of %d not strictly ascending at neighbor %d", v, u)
			}
			prev = u
		}
	}
	// Symmetry: every half-edge must have a matching reverse with equal
	// weight. Rows are strictly ascending, so the reverse is one binary
	// search away.
	for v := int32(0); v < n; v++ {
		w := g.EdgeWeights(v)
		for i, u := range g.Neighbors(v) {
			j, ok := slices.BinarySearch(g.Neighbors(u), v)
			if !ok {
				return fmt.Errorf("graph: asymmetric edge (%d,%d): %d vs 0", v, u, w[i])
			}
			if rw := g.EdgeWeights(u)[j]; rw != w[i] {
				return fmt.Errorf("graph: asymmetric edge (%d,%d): %d vs %d", v, u, w[i], rw)
			}
		}
	}
	return nil
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	cp := &Graph{
		xadj:  append([]int64(nil), g.xadj...),
		adj:   append([]int32(nil), g.adj...),
		ewgt:  append([]int32(nil), g.ewgt...),
		vwgt:  append([]int32(nil), g.vwgt...),
		vsize: append([]int32(nil), g.vsize...),

		ewTotal: g.ewTotal, vwTotal: g.vwTotal, vsTotal: g.vsTotal,
	}
	return cp
}

// UseDegreeWeights sets, as the paper's evaluation does, both the vertex
// weight and the vertex size of every vertex to its degree (minimum 1), and
// leaves edge weights untouched.
func (g *Graph) UseDegreeWeights() {
	var t int64
	for v := int32(0); v < g.NumVertices(); v++ {
		d := max(g.Degree(v), 1)
		g.vwgt[v] = d
		g.vsize[v] = d
		t += int64(d)
	}
	g.vwTotal, g.vsTotal = t, t
}
