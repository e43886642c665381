package graph_test

import (
	"fmt"
	"math/rand"
	"testing"

	"paragon/internal/graph"
)

// BenchmarkBuild measures the counting-scatter CSR build across graph
// sizes at fixed average degree. Build is O(|V| + |E|) with no
// comparison sorts, so ns/op must grow near-linearly with n (within
// cache effects) and allocs/op must stay flat — the regression guards
// for the 10M-vertex scale path (this bench keeps the complexity honest
// in CI; bench/README.md's gen.build_s times generation plus build end
// to end).
func BenchmarkBuild(b *testing.B) {
	for _, n := range []int32{100_000, 400_000, 1_600_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			const avgDeg = 8
			m := int64(n) * avgDeg / 2
			// Pre-generate the edge list outside the timer: the bench
			// measures Build, not the RNG.
			rng := rand.New(rand.NewSource(42))
			us := make([]int32, m)
			vs := make([]int32, m)
			for i := range us {
				u := rng.Int31n(n)
				v := rng.Int31n(n)
				for v == u {
					v = rng.Int31n(n)
				}
				us[i], vs[i] = u, v
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bld := graph.NewBuilder(n)
				bld.Reserve(m)
				for j := range us {
					bld.AddEdge(us[j], vs[j])
				}
				g := bld.Build()
				if g.NumVertices() != n {
					b.Fatal("bad build")
				}
			}
		})
	}
}
