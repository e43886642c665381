package metis

import (
	"testing"

	"paragon/internal/gen"
	"paragon/internal/partition"
)

// benchSink keeps the benchmarked call's result live.
var benchSink *partition.Partitioning

// BenchmarkMetisPartitionMesh is the in-tree mirror of the set-up of
// bench/'s mesh1m_metis_k32: recursive-bisection METIS on the 1000×1000
// mesh at k = 32, seed 42 — the metis.partition_s row of that workload's
// layer table. DESIGN.md §14's "where mesh set-up goes" table is this
// benchmark under -cpuprofile.
func BenchmarkMetisPartitionMesh(b *testing.B) {
	g := gen.Mesh2D(1000, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = Partition(g, 32, Options{Seed: 42})
	}
}
