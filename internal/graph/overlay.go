package graph

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
)

// Half is one directed half-edge of an overlay row: the neighbor and the
// edge's weight.
type Half struct{ To, W int32 }

// Overlay is a mutable copy of a CSR graph: edges can be added and
// removed, and vertex weights and sizes set, without rebuilding a CSR. It
// supports the graph dynamism the paper's Pregel background describes
// (vertex functions may "add or remove vertices/edges to the graph") at
// the granularity the evaluation actually uses — edge churn between
// computations — and materializes back to CSR for the partitioners and
// the BSP engine. It is the streaming session's live graph.
//
// Each vertex owns one row of half-edges, and an edge {u,v} is the pair of
// halves in u's and v's rows, with one weight. The row order is part of
// the contract, because a generator drawing "the i-th neighbor" reads it:
// a row starts in the base graph's order, AddEdge appends and RemoveEdge
// swap-deletes, each in u's row first, then v's. Snapshots do not depend
// on it: Materialize writes every row ascending by neighbor. Overlays are
// not safe for concurrent mutation.
//
// The overlay keeps its last snapshot — NewOverlay's input, then each
// Materialize result — and a log of the edits applied since, so the next
// freeze merges the edits into the snapshot's sorted rows instead of
// sorting the live ones. The log is dropped when it reaches the edge
// count, which bounds the memory of an overlay that is never frozen; the
// next freeze then sorts the live rows and logging resumes from it.
type Overlay struct {
	rows        [][]Half
	vwgt, vsize []int32
	edges       int64 // undirected edges
	ewTotal     int64 // Σ edge weights, each edge once

	base *Graph // the last snapshot; nil while nothing is logged
	log  []edit // the edits applied since base, oldest first
}

// edit is one logged change of the undirected edge {u,v}: an add with its
// weight, or a removal with the removed weight negated.
type edit struct{ u, v, w int32 }

// NewOverlay copies g's rows, vertex weights and sizes. The base graph is
// never modified; the overlay keeps it as the snapshot its first freeze
// merges into, whose rows are ascending as every Graph constructor writes
// them.
func NewOverlay(g *Graph) *Overlay {
	o := &Overlay{
		rows:    make([][]Half, g.NumVertices()),
		vwgt:    append([]int32(nil), g.vwgt...),
		vsize:   append([]int32(nil), g.vsize...),
		edges:   g.NumEdges(),
		ewTotal: g.TotalEdgeWeight(),
		base:    g,
	}
	for v := range o.rows {
		nbrs, ws := g.Neighbors(int32(v)), g.EdgeWeights(int32(v))
		if len(nbrs) == 0 {
			continue
		}
		row := make([]Half, len(nbrs))
		for i, u := range nbrs {
			row[i] = Half{To: u, W: ws[i]}
		}
		o.rows[v] = row
	}
	return o
}

// NumVertices returns the number of vertex ids, the base graph's.
func (o *Overlay) NumVertices() int32 { return int32(len(o.rows)) }

// NumEdges returns the number of undirected edges.
func (o *Overlay) NumEdges() int64 { return o.edges }

// TotalEdgeWeight returns the sum of edge weights, each edge counted once.
func (o *Overlay) TotalEdgeWeight() int64 { return o.ewTotal }

// Row returns v's half-edges in their current order. The slice is the
// overlay's own: read it, do not keep it across a mutation.
func (o *Overlay) Row(v int32) []Half { return o.rows[v] }

// VertexWeight returns v's weight.
func (o *Overlay) VertexWeight(v int32) int32 { return o.vwgt[v] }

// SetVertex sets v's weight and size.
func (o *Overlay) SetVertex(v, weight, size int32) {
	o.vwgt[v], o.vsize[v] = weight, size
}

// in reports whether both endpoints are vertex ids of the overlay.
func (o *Overlay) in(u, v int32) bool {
	n := o.NumVertices()
	return u >= 0 && u < n && v >= 0 && v < n
}

// AddEdge inserts the undirected edge {u,v} with weight w if it is absent
// and reports whether it did: an existing edge keeps its weight.
func (o *Overlay) AddEdge(u, v, w int32) (added bool, err error) {
	if !o.in(u, v) {
		return false, fmt.Errorf("graph: overlay edge (%d,%d) out of range [0,%d)", u, v, o.NumVertices())
	}
	if u == v {
		return false, fmt.Errorf("graph: overlay rejects self-loop on %d", u)
	}
	if w <= 0 {
		return false, fmt.Errorf("graph: overlay rejects non-positive weight %d", w)
	}
	if o.HasEdge(u, v) {
		return false, nil
	}
	o.rows[u] = append(o.rows[u], Half{To: v, W: w})
	o.rows[v] = append(o.rows[v], Half{To: u, W: w})
	o.edges++
	o.ewTotal += int64(w)
	o.record(u, v, w)
	return true, nil
}

// RemoveEdge deletes the undirected edge {u,v} and returns its weight; ok
// is false, and nothing changes, when the edge is absent.
func (o *Overlay) RemoveEdge(u, v int32) (w int32, ok bool) {
	if !o.in(u, v) {
		return 0, false
	}
	if w, ok = o.unlink(u, v); !ok {
		return 0, false
	}
	o.unlink(v, u)
	o.edges--
	o.ewTotal -= int64(w)
	o.record(u, v, -w)
	return w, true
}

// unlink swap-deletes v from u's row: the row's last half-edge takes v's
// place.
func (o *Overlay) unlink(u, v int32) (int32, bool) {
	row := o.rows[u]
	for i, h := range row {
		if h.To == v {
			last := len(row) - 1
			row[i] = row[last]
			o.rows[u] = row[:last]
			return h.W, true
		}
	}
	return 0, false
}

// HasEdge reports whether {u,v} exists. It scans the shorter row.
func (o *Overlay) HasEdge(u, v int32) bool {
	if !o.in(u, v) {
		return false
	}
	if len(o.rows[v]) < len(o.rows[u]) {
		u, v = v, u
	}
	for _, h := range o.rows[u] {
		if h.To == v {
			return true
		}
	}
	return false
}

// record appends one edit to the log, or drops the log when it reaches
// the edge count.
func (o *Overlay) record(u, v, w int32) {
	if o.base == nil {
		return
	}
	if int64(len(o.log)) >= o.edges {
		o.base, o.log = nil, nil
		return
	}
	o.log = append(o.log, edit{u, v, w})
}

// Materialize freezes the overlay into a fresh immutable CSR graph with
// its current vertex weights and sizes, through the one direct fill every
// freeze goes through. With a log, each row is the last snapshot's row
// merged with the row's edits; without one, the live rows are copied and
// sorted, and they are symmetric and duplicate-free by AddEdge's and
// RemoveEdge's own bookkeeping. Either way the snapshot is the same, and
// it becomes the base the next freeze merges into.
func (o *Overlay) Materialize() *Graph {
	degree := func(v int32) int32 { return int32(len(o.rows[v])) }
	var g *Graph
	if o.base != nil {
		g = o.merge(degree)
	} else {
		g = FromSymmetricRows(o.NumVertices(), o.vwgt, o.vsize, degree,
			func(v int32, to, w []int32) {
				for i, h := range o.rows[v] {
					to[i], w[i] = h.To, h.W
				}
			}, runtime.GOMAXPROCS(0))
	}
	o.base, o.log = g, o.log[:0]
	return g
}

// merge writes every row as the base row with its logged edits applied.
// The log's half-edits are bucketed by row in one counting pass, keeping
// log order within a row; a row's bucket is then stable-sorted by
// neighbor, so the last edit of each neighbor decides — present with its
// weight after an add, absent after a removal — and those net edits are
// merged into the base row, which is already ascending. A row without
// edits is the base row, copied. The live rows give only the lengths.
func (o *Overlay) merge(degree func(v int32) int32) *Graph {
	n := o.NumVertices()
	start := make([]int, n+1) // row v's half-edits are halves[start[v]:start[v+1]]
	for _, e := range o.log {
		start[e.u+1]++
		start[e.v+1]++
	}
	for v := int32(1); v <= n; v++ {
		start[v] += start[v-1]
	}
	halves := make([]Half, 2*len(o.log))
	for _, e := range o.log {
		halves[start[e.u]] = Half{To: e.v, W: e.w}
		start[e.u]++
		halves[start[e.v]] = Half{To: e.u, W: e.w}
		start[e.v]++
	}
	copy(start[1:], start[:n]) // each start[v] ran to v's end, v+1's start
	start[0] = 0

	base := o.base
	return FromSymmetricRows(n, o.vwgt, o.vsize, degree,
		func(v int32, to, w []int32) {
			edits := halves[start[v]:start[v+1]]
			slices.SortStableFunc(edits, func(a, b Half) int { return cmp.Compare(a.To, b.To) })
			mergeRow(to, w, base.Neighbors(v), base.EdgeWeights(v), edits)
		}, runtime.GOMAXPROCS(0))
}

// mergeRow writes the ascending row old/oldW with the neighbor-sorted
// edits applied into to/w, whose length is the live row's.
func mergeRow(to, w, old, oldW []int32, edits []Half) {
	k, i := 0, 0
	for j := 0; j < len(edits); j++ {
		x := edits[j].To
		for j+1 < len(edits) && edits[j+1].To == x {
			j++ // the last edit of x decides
		}
		for ; i < len(old) && old[i] < x; i++ {
			to[k], w[k] = old[i], oldW[i]
			k++
		}
		if i < len(old) && old[i] == x {
			i++
		}
		if edits[j].W > 0 {
			to[k], w[k] = x, edits[j].W
			k++
		}
	}
	copy(to[k:], old[i:])
	copy(w[k:], oldW[i:])
}
