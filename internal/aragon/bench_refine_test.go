package aragon

import (
	"fmt"
	"sync"
	"testing"

	"paragon/internal/gen"
	"paragon/internal/graph"
	"paragon/internal/partition"
	"paragon/internal/stream"
	"paragon/internal/topology"
)

var (
	hotBenchOnce  sync.Once
	hotBenchGraph *graph.Graph
)

func benchGraph100k() *graph.Graph {
	hotBenchOnce.Do(func() {
		g := gen.RMAT(100_000, 800_000, 0.57, 0.19, 0.19, 42)
		g.UseDegreeWeights()
		hotBenchGraph = g
	})
	return hotBenchGraph
}

// BenchmarkRefinePairHot measures refinement of a single partition pair
// on a 100k-vertex graph — the innermost unit of work PARAGON fans out
// k(k-1)/2m times per group per round — under a uniform matrix and under
// the paper's case, a non-uniform PittCluster matrix, each seeded from
// adjacency scans (serial ARAGON) and from a neighbor profile (the
// scheduler's arrangement). The index and the profile are built outside
// the timed region, as in a real sweep where they amortize over all
// k(k-1)/2 pairs.
func BenchmarkRefinePairHot(b *testing.B) {
	for _, k := range []int32{32, 128} {
		pitt, err := topology.PittCluster(int(k+19)/20).PartitionCostMatrix(int(k), 0)
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range []struct {
			name string
			c    [][]float64
		}{{"uniform", topology.UniformMatrix(int(k))}, {"pitt", pitt}} {
			for _, seeding := range []string{"scan", "profile"} {
				b.Run(fmt.Sprintf("k=%d/%s/%s", k, m.name, seeding), func(b *testing.B) {
					g := benchGraph100k()
					p0 := stream.HP(g, k)
					orig := append([]int32(nil), p0.Assign...)
					maxLoad := partition.BalanceBound(g, k, 0.02)
					var profile *partition.NeighborProfile
					if seeding == "profile" {
						if profile, err = partition.BuildNeighborProfile(g, p0.Assign, k, 1); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						p := p0.Clone()
						loads := p.Weights(g)
						r := NewRefiner(g, partition.BuildIndex(g, p), Config{})
						r.SetProfile(profile)
						b.StartTimer()
						r.RefinePair(orig, 0, 1, m.c, loads, maxLoad, nil)
					}
				})
			}
		}
	}
}
