package gen

import (
	"fmt"
	"testing"

	"paragon/internal/graph"
)

// benchSink keeps the benchmarked call's result live.
var benchSink *graph.Graph

// BenchmarkRMAT is the in-tree mirror of the gen.build_s row of bench/'s
// three RMAT workloads: portfolio_hp_k64 (50k, 300k), rmat100k_dg_k128
// (100k, 800k) and churn_rmat200k_k32 (200k, 1.2M), input seed 42.
// DESIGN.md §14's "where RMAT set-up goes" table is this benchmark
// under -cpuprofile.
func BenchmarkRMAT(b *testing.B) {
	for _, sz := range []struct {
		n int32
		m int64
	}{{50000, 300000}, {100000, 800000}, {200000, 1200000}} {
		b.Run(fmt.Sprintf("n=%d/m=%d", sz.n, sz.m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = RMAT(sz.n, sz.m, 0.57, 0.19, 0.19, 42)
			}
		})
	}
}
