package graph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestOverlayAddRemove(t *testing.T) {
	g := buildPath(4) // 0-1-2-3
	o := NewOverlay(g)
	if m := o.Materialize(); m.NumEdges() != 3 {
		t.Fatalf("initial edges = %d", m.NumEdges())
	}
	if added, err := o.AddEdge(0, 3, 5); !added || err != nil {
		t.Fatalf("AddEdge(0, 3, 5) = %v, %v", added, err)
	}
	m := o.Materialize()
	if !o.HasEdge(0, 3) || m.EdgeWeightBetween(3, 0) != 5 {
		t.Fatal("added edge missing")
	}
	if m.NumEdges() != 4 || o.NumEdges() != 4 || o.TotalEdgeWeight() != 8 {
		t.Fatalf("edges = %d (overlay %d, weight %d), want 4 (4, 8)", m.NumEdges(), o.NumEdges(), o.TotalEdgeWeight())
	}
	if m.Degree(0) != 2 || m.Degree(3) != 2 {
		t.Fatalf("degrees %d %d", m.Degree(0), m.Degree(3))
	}
	if w, ok := o.RemoveEdge(1, 2); w != 1 || !ok { // base edge
		t.Fatalf("RemoveEdge(1, 2) = %d, %v", w, ok)
	}
	m = o.Materialize()
	if o.HasEdge(1, 2) || m.EdgeWeightBetween(1, 2) != 0 {
		t.Fatal("removed base edge still visible")
	}
	if m.NumEdges() != 3 {
		t.Fatalf("edges = %d, want 3", m.NumEdges())
	}
	if w, ok := o.RemoveEdge(0, 3); w != 5 || !ok { // added edge
		t.Fatalf("RemoveEdge(0, 3) = %d, %v", w, ok)
	}
	if o.HasEdge(0, 3) {
		t.Fatal("removed added edge still visible")
	}
	// Removing a non-edge is a no-op.
	if _, ok := o.RemoveEdge(0, 2); ok {
		t.Fatal("removed a non-edge")
	}
	if m := o.Materialize(); m.NumEdges() != 2 || o.NumEdges() != 2 || o.TotalEdgeWeight() != 2 {
		t.Fatalf("edges = %d (overlay %d, weight %d), want 2 (2, 2)", m.NumEdges(), o.NumEdges(), o.TotalEdgeWeight())
	}
}

func TestOverlayReAddBaseEdge(t *testing.T) {
	g := buildPath(3)
	o := NewOverlay(g)
	o.RemoveEdge(0, 1)
	if added, err := o.AddEdge(0, 1, 7); !added || err != nil {
		t.Fatalf("AddEdge(0, 1, 7) = %v, %v", added, err)
	}
	if w := o.Materialize().EdgeWeightBetween(0, 1); w != 7 {
		t.Fatalf("re-added weight = %d", w)
	}
	// Adding an edge that exists changes nothing: it keeps its weight.
	if added, err := o.AddEdge(2, 1, 9); added || err != nil {
		t.Fatalf("AddEdge(2, 1, 9) on an existing edge = %v, %v", added, err)
	}
	m := o.Materialize()
	if m.EdgeWeightBetween(1, 2) != 1 || m.NumEdges() != 2 || o.TotalEdgeWeight() != 8 {
		t.Fatalf("weight %d, %d edges, total weight %d; want 1, 2, 8",
			m.EdgeWeightBetween(1, 2), m.NumEdges(), o.TotalEdgeWeight())
	}
}

func TestOverlayErrors(t *testing.T) {
	g := buildPath(3)
	o := NewOverlay(g)
	if _, err := o.AddEdge(0, 9, 1); err == nil {
		t.Fatal("expected range error")
	}
	if _, err := o.AddEdge(1, 1, 1); err == nil {
		t.Fatal("expected self-loop error")
	}
	if _, err := o.AddEdge(0, 2, 0); err == nil {
		t.Fatal("expected weight error")
	}
	if _, ok := o.RemoveEdge(-1, 9); ok || o.HasEdge(0, 9) {
		t.Fatal("an out-of-range edge exists")
	}
	if o.NumEdges() != 2 {
		t.Fatalf("rejected ops changed the edge count to %d", o.NumEdges())
	}
}

// The row order is a contract (a generator drawing the i-th neighbor
// reads it): base order, then AddEdge appends and RemoveEdge swap-deletes,
// in u's row first, then v's.
func TestOverlayRowOrder(t *testing.T) {
	g := buildPath(6) // vertex 2's base row: 1, 3
	o := NewOverlay(g)
	o.AddEdge(2, 5, 2)
	o.AddEdge(0, 2, 3)
	o.AddEdge(2, 4, 4)
	want := []Half{{1, 1}, {3, 1}, {5, 2}, {0, 3}, {4, 4}}
	if !slices.Equal(o.Row(2), want) {
		t.Fatalf("row 2 = %v, want %v", o.Row(2), want)
	}
	o.RemoveEdge(2, 3) // the last half-edge takes 3's place
	want = []Half{{1, 1}, {4, 4}, {5, 2}, {0, 3}}
	if !slices.Equal(o.Row(2), want) {
		t.Fatalf("row 2 = %v, want %v", o.Row(2), want)
	}
	if want := []Half{{4, 1}}; !slices.Equal(o.Row(3), want) {
		t.Fatalf("row 3 = %v, want %v", o.Row(3), want)
	}
	if want := []Half{{3, 1}, {5, 1}, {2, 4}}; !slices.Equal(o.Row(4), want) {
		t.Fatalf("row 4 = %v, want %v", o.Row(4), want)
	}
}

func TestOverlayMaterialize(t *testing.T) {
	g := buildPaperGraph()
	g.UseDegreeWeights()
	o := NewOverlay(g)
	o.AddEdge(0, 4, 3)
	o.RemoveEdge(7, 8)
	m := o.Materialize()
	if err := m.Validate(); err != nil {
		t.Fatalf("materialized invalid: %v", err)
	}
	if m.NumEdges() != g.NumEdges() {
		t.Fatalf("edges = %d, want %d (one added, one removed)", m.NumEdges(), g.NumEdges())
	}
	if m.EdgeWeightBetween(0, 4) != 3 {
		t.Fatal("added edge lost in materialization")
	}
	if m.HasEdge(7, 8) {
		t.Fatal("removed edge survived materialization")
	}
	// Vertex attributes carried over.
	for v := int32(0); v < g.NumVertices(); v++ {
		if m.VertexWeight(v) != g.VertexWeight(v) || m.VertexSize(v) != g.VertexSize(v) {
			t.Fatalf("vertex %d attrs lost", v)
		}
	}
	// SetVertex reaches the next snapshot, and only the overlay's copy.
	o.SetVertex(3, 11, 12)
	if m := o.Materialize(); m.VertexWeight(3) != 11 || m.VertexSize(3) != 12 || o.VertexWeight(3) != 11 {
		t.Fatalf("vertex 3: weight %d, size %d after SetVertex(3, 11, 12)", m.VertexWeight(3), m.VertexSize(3))
	}
	if g.VertexWeight(3) == 11 {
		t.Fatal("SetVertex wrote the base graph")
	}
}

// Property: a random mutation sequence applied to an overlay and then
// materialized equals applying the same final edge set to a builder. The
// reference adds an edge only when it is absent.
func TestQuickOverlayMatchesRebuild(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := buildPath(20)
		o := NewOverlay(base)
		// Reference edge set, keyed (min, max): start from the base.
		key := func(u, v int32) [2]int32 { return [2]int32{min(u, v), max(u, v)} }
		ref := map[[2]int32]int32{}
		for v := int32(0); v < 19; v++ {
			ref[key(v, v+1)] = 1
		}
		for i := 0; i < 60; i++ {
			u := int32(rng.Intn(20))
			v := int32(rng.Intn(20))
			if u == v {
				continue
			}
			if rng.Intn(3) == 0 {
				o.RemoveEdge(u, v)
				delete(ref, key(u, v))
			} else {
				w := int32(rng.Intn(5) + 1)
				if _, ok := ref[key(u, v)]; !ok {
					ref[key(u, v)] = w
				}
				o.AddEdge(u, v, w)
			}
		}
		m := o.Materialize()
		if m.Validate() != nil {
			return false
		}
		if m.NumEdges() != int64(len(ref)) || o.NumEdges() != m.NumEdges() || o.TotalEdgeWeight() != m.TotalEdgeWeight() {
			return false
		}
		for k, w := range ref {
			if m.EdgeWeightBetween(k[0], k[1]) != w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
