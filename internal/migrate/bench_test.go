package migrate_test

import (
	"testing"

	"paragon/internal/gen"
	"paragon/internal/migrate"
	"paragon/internal/paragon"
	"paragon/internal/portfolio"
	"paragon/internal/stream"
	"paragon/internal/topology"
)

// BenchmarkExecute mirrors the migration half of the bench harness's
// portfolio_hp_k64 gate in-tree (bench/ is a module of its own): RMAT
// 50 k / 300 k with degree weights, the hash partitioner at k = 64, one
// four-member portfolio refinement at two shuffles, then Execute of the
// plan from the input to the refined decomposition. Building the stores
// is outside the timer.
func BenchmarkExecute(b *testing.B) {
	g := gen.RMAT(50000, 300000, 0.57, 0.19, 0.19, 42)
	g.UseDegreeWeights()
	const k = 64
	old := stream.HP(g, k)
	now := old.Clone()
	cfg := paragon.DefaultConfig()
	cfg.Shuffles, cfg.Portfolio.Size = 2, 4
	if _, err := portfolio.Refine(g, now, topology.UniformMatrix(k), cfg); err != nil {
		b.Fatal(err)
	}
	plan, err := migrate.NewPlan(old, now)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		stores := migrate.BuildStores(g, old)
		b.StartTimer()
		if _, err := migrate.Execute(stores, plan, migrate.AppContext{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(plan.Moves)), "moves/op")
}
