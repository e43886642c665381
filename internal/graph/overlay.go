package graph

import (
	"fmt"
	"runtime"
	"sort"
)

// Overlay is a mutable view over an immutable CSR graph: edges can be
// added and removed without rebuilding the base. It supports the graph
// dynamism the paper's Pregel background describes (vertex functions may
// "add or remove vertices/edges to the graph") at the granularity the
// evaluation actually uses — edge churn between computations — and
// materializes back to CSR for the partitioners and the BSP engine.
//
// Removal beats addition: removing an added edge forgets it; removing a
// base edge masks it; re-adding a removed base edge unmasks it with the
// new weight. Overlays are not safe for concurrent mutation.
type Overlay struct {
	base    *Graph
	added   map[int32][]halfEdge // per endpoint, symmetric
	removed map[edgeKey]bool     // masked base edges
}

type halfEdge struct {
	to int32
	w  int32
}

type edgeKey struct{ a, b int32 }

func canonKey(u, v int32) edgeKey {
	if u > v {
		u, v = v, u
	}
	return edgeKey{u, v}
}

// NewOverlay wraps g. The base graph is never modified.
func NewOverlay(g *Graph) *Overlay {
	return &Overlay{
		base:    g,
		added:   make(map[int32][]halfEdge),
		removed: make(map[edgeKey]bool),
	}
}

// NumVertices returns the (fixed) vertex count.
func (o *Overlay) NumVertices() int32 { return o.base.NumVertices() }

// AddEdge inserts the undirected edge {u,v} with weight w. Adding an
// edge that already exists replaces its weight.
func (o *Overlay) AddEdge(u, v, w int32) error {
	n := o.base.NumVertices()
	if u < 0 || u >= n || v < 0 || v >= n {
		return fmt.Errorf("graph: overlay edge (%d,%d) out of range [0,%d)", u, v, n)
	}
	if u == v {
		return fmt.Errorf("graph: overlay rejects self-loop on %d", u)
	}
	if w <= 0 {
		return fmt.Errorf("graph: overlay rejects non-positive weight %d", w)
	}
	key := canonKey(u, v)
	// Drop any previous overlay state for the edge, then add fresh.
	o.dropAdded(u, v)
	o.dropAdded(v, u)
	delete(o.removed, key)
	if o.base.HasEdge(u, v) {
		if o.base.EdgeWeightBetween(u, v) == w {
			return nil // identical to base; nothing to overlay
		}
		// Mask the base edge and shadow it with the new weight.
		o.removed[key] = true
	}
	o.added[u] = append(o.added[u], halfEdge{v, w})
	o.added[v] = append(o.added[v], halfEdge{u, w})
	return nil
}

// RemoveEdge deletes the undirected edge {u,v} if present (base or
// added). Removing a non-existent edge is a no-op.
func (o *Overlay) RemoveEdge(u, v int32) {
	o.dropAdded(u, v)
	o.dropAdded(v, u)
	if o.base.HasEdge(u, v) {
		o.removed[canonKey(u, v)] = true
	}
}

func (o *Overlay) dropAdded(u, v int32) {
	list := o.added[u]
	for i, he := range list {
		if he.to == v {
			o.added[u] = append(list[:i], list[i+1:]...)
			return
		}
	}
}

// HasEdge reports whether {u,v} exists in the overlaid graph.
func (o *Overlay) HasEdge(u, v int32) bool {
	for _, he := range o.added[u] {
		if he.to == v {
			return true
		}
	}
	if o.removed[canonKey(u, v)] {
		return false
	}
	return o.base.HasEdge(u, v)
}

// EdgeWeightBetween returns the weight of {u,v}, or 0 if absent.
func (o *Overlay) EdgeWeightBetween(u, v int32) int32 {
	for _, he := range o.added[u] {
		if he.to == v {
			return he.w
		}
	}
	if o.removed[canonKey(u, v)] {
		return 0
	}
	return o.base.EdgeWeightBetween(u, v)
}

// Degree returns the current degree of v.
func (o *Overlay) Degree(v int32) int32 {
	d := int32(len(o.added[v]))
	for _, u := range o.base.Neighbors(v) {
		if !o.removed[canonKey(v, u)] {
			d++
		}
	}
	return d
}

// ForEachNeighbor visits every current neighbor of v with its weight.
func (o *Overlay) ForEachNeighbor(v int32, fn func(u int32, w int32)) {
	adj := o.base.Neighbors(v)
	ws := o.base.EdgeWeights(v)
	for i, u := range adj {
		if !o.removed[canonKey(v, u)] {
			fn(u, ws[i])
		}
	}
	for _, he := range o.added[v] {
		fn(he.to, he.w)
	}
}

// NumEdges returns the current undirected edge count.
func (o *Overlay) NumEdges() int64 {
	m := o.base.NumEdges() - int64(len(o.removed))
	var addedCount int64
	for _, list := range o.added {
		addedCount += int64(len(list))
	}
	return m + addedCount/2
}

// Materialize flattens the overlay into a fresh immutable CSR graph,
// carrying the base vertex weights and sizes. A row is the base row minus
// its masked edges plus the added ones — symmetric and duplicate-free by
// AddEdge's and RemoveEdge's own bookkeeping — so it goes through the
// same direct fill as every other freeze.
func (o *Overlay) Materialize() *Graph {
	// Masked base edges per endpoint: the degrees need them before any row
	// is filled, and rows without one skip the per-neighbor map probes.
	masked := make([]int32, o.base.NumVertices())
	for key := range o.removed {
		masked[key.a]++
		masked[key.b]++
	}
	return FromSymmetricRows(o.base.NumVertices(), o.base.vwgt, o.base.vsize,
		func(v int32) int32 { return o.base.Degree(v) - masked[v] + int32(len(o.added[v])) },
		func(v int32, to, w []int32) {
			i := 0
			if masked[v] > 0 {
				o.ForEachNeighbor(v, func(u, ew int32) {
					to[i], w[i] = u, ew
					i++
				})
				return
			}
			i = copy(to, o.base.Neighbors(v))
			copy(w, o.base.EdgeWeights(v))
			for _, he := range o.added[v] {
				to[i], w[i] = he.to, he.w
				i++
			}
		}, runtime.GOMAXPROCS(0))
}

// PendingChanges returns the number of overlay operations (added half
// edge lists + masked edges) — a cheap drift signal for repartitioning
// trigger policies.
func (o *Overlay) PendingChanges() int {
	c := len(o.removed)
	for _, list := range o.added {
		c += len(list)
	}
	return c
}

// AddedEdges returns the overlay's added undirected edges, sorted, for
// inspection and tests.
func (o *Overlay) AddedEdges() [][2]int32 {
	var out [][2]int32
	for u, list := range o.added {
		for _, he := range list {
			if u < he.to {
				out = append(out, [2]int32{u, he.to})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}
