package graph_test

import (
	"fmt"
	"testing"

	"paragon/internal/detrand"
	"paragon/internal/dyn"
	"paragon/internal/gen"
	"paragon/internal/graph"
)

// graphHash folds every vertex's weight, size and sorted row into one
// FNV-1a word.
func graphHash(g *graph.Graph) uint64 {
	h := detrand.FNVFold64(detrand.FNVOffset64, uint64(g.NumVertices()))
	for v := int32(0); v < g.NumVertices(); v++ {
		h = detrand.FNVFold64(h, uint64(g.VertexWeight(v))<<32|uint64(g.VertexSize(v)))
		h = detrand.FNVFold64(h, uint64(g.Degree(v)))
		ws := g.EdgeWeights(v)
		for i, u := range g.Neighbors(v) {
			h = detrand.FNVFold64(h, uint64(u)<<32|uint64(ws[i]))
		}
	}
	return h
}

// TestOverlayMaterializeGoldens pins the snapshot an overlay freezes to
// after a round of random churn, and how many ops changed the graph, so a
// change to the overlay's bookkeeping must re-pin deliberately instead of
// drifting silently. Removals come first in a churn list, so some adds
// re-create an edge removed a moment before.
func TestOverlayMaterializeGoldens(t *testing.T) {
	want := map[string]struct {
		applied int
		hash    uint64
	}{
		"rmat20k-dw/s1": {4986, 0x45a862fcad9ed23f},
		"rmat20k-dw/s2": {4975, 0x43d85d4e0bb81da1},
		"rmat20k-dw/s3": {4985, 0xc98977fb5856e179},
		"mesh120/s1":    {4524, 0xef7197266ecebd1b},
		"mesh120/s2":    {4497, 0x6e0ae8948783c150},
		"mesh120/s3":    {4521, 0x8fc4a5210956e906},
	}
	rmat := gen.RMAT(20000, 120000, .57, .19, .19, 5)
	rmat.UseDegreeWeights()
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{{"rmat20k-dw", rmat}, {"mesh120", gen.Mesh2D(120, 120)}} {
		for _, seed := range []int64{1, 2, 3} {
			key := fmt.Sprintf("%s/s%d", tc.name, seed)
			o := graph.NewOverlay(tc.g)
			applied := dyn.ApplyChurn(o, dyn.RandomChurn(tc.g, 3000, 2000, seed))
			m := o.Materialize()
			if err := m.Validate(); err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if got := graphHash(m); applied != want[key].applied || got != want[key].hash {
				t.Errorf("%q: {%d, %#016x}, want {%d, %#016x}", key, applied, got, want[key].applied, want[key].hash)
			}
		}
	}
}
