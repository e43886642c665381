package portfolio

import (
	"testing"

	"paragon/internal/gen"
	"paragon/internal/paragon"
	"paragon/internal/partition"
	"paragon/internal/stream"
	"paragon/internal/topology"
)

// BenchmarkPortfolioHP mirrors the bench harness's portfolio_hp_k64
// workload in-tree (bench/ is a module of its own): RMAT 50 k / 300 k with
// degree weights, the hash partitioner at k = 64, a uniform matrix, two
// shuffles, four members, one Pool reused across calls. The combine
// touches all 64 partitions, so pairs/op is 2 rounds × 2 016.
func BenchmarkPortfolioHP(b *testing.B) {
	g := gen.RMAT(50000, 300000, 0.57, 0.19, 0.19, 42)
	g.UseDegreeWeights()
	const k = 64
	p0 := stream.HP(g, k)
	c := topology.UniformMatrix(k)
	cfg := paragon.DefaultConfig()
	cfg.Shuffles, cfg.Seed, cfg.Portfolio.Size = 2, 42, 4
	var pool Pool
	var st Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if st, err = RefineWithPool(g, p0.Clone(), c, cfg, &pool); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(st.CombinePairs), "pairs/op")
}

// BenchmarkPortfolioScorer isolates the shared Eq. 2–4 scorer — the
// per-member selection overhead the portfolio pays on top of refinement.
func BenchmarkPortfolioScorer(b *testing.B) {
	g := gen.RMAT(20000, 120000, 0.57, 0.19, 0.19, 7)
	g.UseDegreeWeights()
	const k = 64
	p := stream.HP(g, k)
	orig := p.Clone()
	c := make([][]float64, k)
	for i := range c {
		c[i] = make([]float64, k)
		for j := range c[i] {
			if i != j {
				c[i][j] = 2
			}
		}
	}
	cs, err := partition.CheckCosts(c, k)
	if err != nil {
		b.Fatal(err)
	}
	wbuf := make([]int64, k)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = partition.ComputeScoreInto(g, p, orig.Assign, cs, partition.Alpha(10), wbuf)
	}
}
