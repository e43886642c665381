package partition_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"paragon/internal/gen"
	"paragon/internal/graph"
	"paragon/internal/metis"
	"paragon/internal/partition"
	"paragon/internal/stream"
)

// starGraph is a hub joined to n−1 leaves: the hub's row is half of all
// half-edges, so at four vertex ranges one of them is empty. (No vertex of
// RMAT(20 000, 160 000) holds even 1 % of the half-edges.)
func starGraph(n int32) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := int32(1); v < n; v++ {
		b.AddEdge(0, v)
	}
	return b.Build()
}

// diffIndexState names the first structure in which got departs from want.
func diffIndexState(got, want partition.IndexState) error {
	if len(got.Ext) != len(want.Ext) {
		return fmt.Errorf("ext has %d entries, want %d", len(got.Ext), len(want.Ext))
	}
	for v := range want.Ext {
		if got.Ext[v] != want.Ext[v] {
			return fmt.Errorf("ext[%d] = %d, want %d", v, got.Ext[v], want.Ext[v])
		}
	}
	if !slices.Equal(got.Incident, want.Incident) {
		return fmt.Errorf("incident = %v, want %v", got.Incident, want.Incident)
	}
	return nil
}

// BuildIndex, and Rebuild after Assign is overwritten, derive exactly the
// ext counts and incident-edge sums of the serial ascending-id pass at
// GOMAXPROCS 1 to 4: on a METIS mesh
// decomposition, a degree-weighted power-law graph under DG, a star whose
// hub leaves a vertex range empty, the graphs of zero and one vertex, and
// a single partition.
func TestBuildIndexMatchesSerialReference(t *testing.T) {
	mesh := gen.Mesh2D(300, 300)
	rmat := gen.RMAT(20_000, 160_000, 0.57, 0.19, 0.19, 42)
	rmat.UseDegreeWeights()
	star := starGraph(5000)
	if b := star.VertexRanges(4); len(slices.Compact(slices.Clone(b))) == len(b) {
		t.Fatalf("star ranges %v: no empty range at 4 parts", b)
	}
	one := graph.NewBuilder(1).Build()
	cases := []struct {
		name string
		g    *graph.Graph
		p    *partition.Partitioning
	}{
		{"mesh300/metis/k=32", mesh, metis.Partition(mesh, 32, metis.Options{Seed: 42})},
		{"rmat20k/dg/k=64", rmat, stream.DG(rmat, 64, stream.DefaultOptions())},
		{"star5000/hp/k=8", star, stream.HP(star, 8)},
		{"n=0", graph.NewBuilder(0).Build(), partition.New(4, 0)},
		{"n=1", one, partition.New(3, 1)},
		{"mesh300/k=1", mesh, partition.New(1, mesh.NumVertices())},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range cases {
		for procs := 1; procs <= 4; procs++ {
			t.Run(fmt.Sprintf("%s/procs=%d", tc.name, procs), func(t *testing.T) {
				runtime.GOMAXPROCS(procs)
				p := tc.p.Clone()
				ix := partition.BuildIndex(tc.g, p)
				if err := diffIndexState(ix.State(), partition.SerialIndexState(tc.g, p)); err != nil {
					t.Fatalf("BuildIndex: %v", err)
				}
				rng := rand.New(rand.NewSource(int64(procs)))
				for v := range p.Assign {
					p.Assign[v] = rng.Int31n(p.K)
				}
				ix.Rebuild()
				if err := diffIndexState(ix.State(), partition.SerialIndexState(tc.g, p)); err != nil {
					t.Fatalf("Rebuild after an Assign overwrite: %v", err)
				}
			})
		}
	}
}
