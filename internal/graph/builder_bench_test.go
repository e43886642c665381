package graph_test

import (
	"fmt"
	"math/rand"
	"runtime"
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

// BenchmarkFromSymmetricRows measures the direct CSR fill on the same
// sizes as BenchmarkBuild, from rows in shuffled order (a live adjacency
// keeps whatever order churn left), at one worker and at GOMAXPROCS. The
// pair of benchmarks is the freeze a session epoch used to pay against the
// one it pays now.
func BenchmarkFromSymmetricRows(b *testing.B) {
	for _, n := range []int32{100_000, 400_000, 1_600_000} {
		const avgDeg = 8
		rng := rand.New(rand.NewSource(42))
		bld := graph.NewBuilder(n)
		for i := int64(0); i < int64(n)*avgDeg/2; i++ {
			u, v := rng.Int31n(n), rng.Int31n(n)
			bld.AddEdge(u, v) // self-loops dropped, repeats merged: the rows stay duplicate-free
		}
		src := bld.Build()
		type half struct{ to, w int32 }
		rows := make([][]half, n)
		ones := make([]int32, n)
		for v := int32(0); v < n; v++ {
			ones[v] = 1
			ws := src.EdgeWeights(v)
			for i, u := range src.Neighbors(v) {
				rows[v] = append(rows[v], half{u, ws[i]})
			}
			rng.Shuffle(len(rows[v]), func(i, j int) { rows[v][i], rows[v][j] = rows[v][j], rows[v][i] })
		}
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			b.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					g := graph.FromSymmetricRows(n, ones, ones,
						func(v int32) int32 { return int32(len(rows[v])) },
						func(v int32, to, w []int32) {
							for i, h := range rows[v] {
								to[i], w[i] = h.to, h.w
							}
						}, workers)
					if g.NumHalfEdges() != src.NumHalfEdges() {
						b.Fatal("bad fill")
					}
				}
			})
		}
	}
}
