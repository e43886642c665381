package graph

import (
	"fmt"
	"runtime"
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
// swap-deletes, each in u's row first, then v's. Materialize sorts every
// row, so snapshots do not depend on it. Overlays are not safe for
// concurrent mutation.
type Overlay struct {
	rows        [][]Half
	vwgt, vsize []int32
	edges       int64 // undirected edges
	ewTotal     int64 // Σ edge weights, each edge once
}

// NewOverlay copies g's rows, vertex weights and sizes. The base graph is
// never modified.
func NewOverlay(g *Graph) *Overlay {
	o := &Overlay{
		rows:    make([][]Half, g.NumVertices()),
		vwgt:    append([]int32(nil), g.vwgt...),
		vsize:   append([]int32(nil), g.vsize...),
		edges:   g.NumEdges(),
		ewTotal: g.TotalEdgeWeight(),
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

// Materialize freezes the overlay into a fresh immutable CSR graph with
// its current vertex weights and sizes. The rows are symmetric and
// duplicate-free by AddEdge's and RemoveEdge's own bookkeeping, so they
// are copied straight into the CSR by the one direct fill every freeze
// goes through.
func (o *Overlay) Materialize() *Graph {
	return FromSymmetricRows(o.NumVertices(), o.vwgt, o.vsize,
		func(v int32) int32 { return int32(len(o.rows[v])) },
		func(v int32, to, w []int32) {
			for i, h := range o.rows[v] {
				to[i], w[i] = h.To, h.W
			}
		}, runtime.GOMAXPROCS(0))
}
