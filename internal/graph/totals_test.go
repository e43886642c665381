package graph

import (
	"bytes"
	"math/rand"
	"testing"
)

// checkTotals fails unless g's cached totals equal a recount of its
// arrays through the accessors.
func checkTotals(t *testing.T, what string, g *Graph) {
	t.Helper()
	var ew, vw, vs int64
	for v := int32(0); v < g.NumVertices(); v++ {
		for _, w := range g.EdgeWeights(v) {
			ew += int64(w)
		}
		vw += int64(g.VertexWeight(v))
		vs += int64(g.VertexSize(v))
	}
	got := [3]int64{g.TotalEdgeWeight(), g.TotalVertexWeight(), g.TotalVertexSize()}
	if want := [3]int64{ew / 2, vw, vs}; got != want {
		t.Fatalf("%s: totals (edge, vertex weight, vertex size) = %v, recount %v", what, got, want)
	}
}

// Every constructor leaves the cached totals equal to a recount:
// Builder.Build (duplicates merged), FromSymmetricRows at 1, 2 and 4
// workers, ReadBinary, Clone, both freeze paths of Overlay.Materialize
// (merging a log, and copying the live rows after the log was dropped),
// Induced, and UseDegreeWeights afterwards.
func TestGraphTotalsMatchRecount(t *testing.T) {
	s := randomSymRows(600, 5)
	checkTotals(t, "empty", NewBuilder(0).Build())
	b := s.viaBuilder()
	checkTotals(t, "Build", b)
	dup := NewBuilder(3)
	dup.AddWeightedEdge(0, 1, 4)
	dup.AddWeightedEdge(1, 0, 3)
	dup.AddWeightedEdge(1, 2, 2)
	dup.SetVertexWeight(2, 7)
	checkTotals(t, "Build with a merged duplicate", dup.Build())
	for _, workers := range []int{1, 2, 4} {
		checkTotals(t, "FromSymmetricRows", s.freeze(workers))
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, b); err != nil {
		t.Fatal(err)
	}
	rb, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	checkTotals(t, "ReadBinary", rb)
	checkTotals(t, "Clone", b.Clone())

	o := NewOverlay(b)
	rng := rand.New(rand.NewSource(9))
	edit := func(edits int) {
		for i := 0; i < edits; i++ {
			u, v := rng.Int31n(600), rng.Int31n(600)
			if u == v {
				continue
			}
			if _, ok := o.RemoveEdge(u, v); !ok {
				if _, err := o.AddEdge(u, v, 1+rng.Int31n(6)); err != nil {
					t.Fatal(err)
				}
			}
			o.SetVertex(u, rng.Int31n(4), 1+rng.Int31n(4))
		}
	}
	edit(40)
	checkTotals(t, "Materialize merging a log", o.Materialize())
	edit(int(b.NumEdges()) + 10)
	checkTotals(t, "Materialize copying the live rows", o.Materialize())

	sub, _ := Induced(b, []int32{3, 7, 8, 20, 21, 22, 100, 400, 599})
	checkTotals(t, "Induced", sub)
	b.UseDegreeWeights()
	checkTotals(t, "UseDegreeWeights", b)
}
