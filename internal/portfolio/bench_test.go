package portfolio

import (
	"testing"

	"paragon/internal/gen"
	"paragon/internal/partition"
	"paragon/internal/stream"
)

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
	wbuf := make([]int64, k)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = partition.ComputeScoreInto(g, p, orig.Assign, c, 10, wbuf)
	}
}
