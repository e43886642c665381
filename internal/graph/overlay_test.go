package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestOverlayAddRemove(t *testing.T) {
	g := buildPath(4) // 0-1-2-3
	o := NewOverlay(g)
	if m := o.Materialize(); m.NumEdges() != 3 {
		t.Fatalf("initial edges = %d", m.NumEdges())
	}
	if err := o.AddEdge(0, 3, 5); err != nil {
		t.Fatal(err)
	}
	m := o.Materialize()
	if !o.HasEdge(0, 3) || m.EdgeWeightBetween(3, 0) != 5 {
		t.Fatal("added edge missing")
	}
	if m.NumEdges() != 4 {
		t.Fatalf("edges = %d, want 4", m.NumEdges())
	}
	if m.Degree(0) != 2 || m.Degree(3) != 2 {
		t.Fatalf("degrees %d %d", m.Degree(0), m.Degree(3))
	}
	o.RemoveEdge(1, 2) // base edge
	m = o.Materialize()
	if o.HasEdge(1, 2) || m.EdgeWeightBetween(1, 2) != 0 {
		t.Fatal("removed base edge still visible")
	}
	if m.NumEdges() != 3 {
		t.Fatalf("edges = %d, want 3", m.NumEdges())
	}
	o.RemoveEdge(0, 3) // added edge
	if o.HasEdge(0, 3) {
		t.Fatal("removed added edge still visible")
	}
	// Removing a non-edge is a no-op.
	o.RemoveEdge(0, 2)
	if m := o.Materialize(); m.NumEdges() != 2 {
		t.Fatalf("edges = %d, want 2", m.NumEdges())
	}
}

func TestOverlayReAddBaseEdge(t *testing.T) {
	g := buildPath(3)
	o := NewOverlay(g)
	o.RemoveEdge(0, 1)
	if err := o.AddEdge(0, 1, 7); err != nil {
		t.Fatal(err)
	}
	if w := o.Materialize().EdgeWeightBetween(0, 1); w != 7 {
		t.Fatalf("re-added weight = %d", w)
	}
	// Overwriting a base edge's weight shadows it.
	if err := o.AddEdge(1, 2, 9); err != nil {
		t.Fatal(err)
	}
	m := o.Materialize()
	if m.EdgeWeightBetween(1, 2) != 9 {
		t.Fatal("weight overwrite failed")
	}
	if m.NumEdges() != 2 {
		t.Fatalf("edges = %d, want 2", m.NumEdges())
	}
	// Adding with the identical base weight is a no-op overlay-wise.
	o2 := NewOverlay(g)
	if err := o2.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if len(o2.removed) != 0 || len(o2.added[0])+len(o2.added[1]) != 0 {
		t.Fatalf("identical re-add left overlay state: removed %v, added %v", o2.removed, o2.added)
	}
}

func TestOverlayErrors(t *testing.T) {
	g := buildPath(3)
	o := NewOverlay(g)
	if err := o.AddEdge(0, 9, 1); err == nil {
		t.Fatal("expected range error")
	}
	if err := o.AddEdge(1, 1, 1); err == nil {
		t.Fatal("expected self-loop error")
	}
	if err := o.AddEdge(0, 2, 0); err == nil {
		t.Fatal("expected weight error")
	}
}

func TestOverlayForEachNeighbor(t *testing.T) {
	g := buildPath(4)
	o := NewOverlay(g)
	o.AddEdge(1, 3, 2)
	o.RemoveEdge(1, 0)
	seen := map[int32]int32{}
	o.ForEachNeighbor(1, func(u, w int32) { seen[u] = w })
	if len(seen) != 2 || seen[2] != 1 || seen[3] != 2 {
		t.Fatalf("neighbors of 1 = %v", seen)
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
}

// Property: a random mutation sequence applied to an overlay and then
// materialized equals applying the same final edge set to a builder.
func TestQuickOverlayMatchesRebuild(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := buildPath(20)
		o := NewOverlay(base)
		// Reference edge set: start from the base.
		ref := map[edgeKey]int32{}
		for v := int32(0); v < 19; v++ {
			ref[canonKey(v, v+1)] = 1
		}
		for i := 0; i < 60; i++ {
			u := int32(rng.Intn(20))
			v := int32(rng.Intn(20))
			if u == v {
				continue
			}
			if rng.Intn(3) == 0 {
				o.RemoveEdge(u, v)
				delete(ref, canonKey(u, v))
			} else {
				w := int32(rng.Intn(5) + 1)
				if o.AddEdge(u, v, w) == nil {
					ref[canonKey(u, v)] = w
				}
			}
		}
		m := o.Materialize()
		if m.Validate() != nil {
			return false
		}
		if m.NumEdges() != int64(len(ref)) {
			return false
		}
		for key, w := range ref {
			if m.EdgeWeightBetween(key.a, key.b) != w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
