// Package main_test holds the benchmark harness: one testing.B per table
// and figure of the paper's evaluation (regenerating its rows via the
// internal/exp harness at benchmark scale) plus component benchmarks for
// the core operations and the DESIGN.md ablations.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// For the paper-shaped output at a larger scale, use cmd/experiments.
package paragon_test

import (
	"testing"

	"paragon/internal/apps"
	"paragon/internal/aragon"
	"paragon/internal/bsp"
	"paragon/internal/exp"
	"paragon/internal/gen"
	"paragon/internal/graph"
	"paragon/internal/metis"
	"paragon/internal/migrate"
	"paragon/internal/paragon"
	"paragon/internal/parmetis"
	"paragon/internal/stream"
	"paragon/internal/topology"
)

// benchScale sizes the datasets for benchmarking (the exp tests use a
// similar scale; cmd/experiments defaults to 0.3).
const benchScale = 0.06

// ---- Evaluation tables and figures (§7) ----

// BenchmarkFig7DegreeOfParallelism regenerates Figures 7a/7b: refinement
// time and quality across drp = 1..20.
func BenchmarkFig7DegreeOfParallelism(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a, c := exp.Fig7(benchScale)
		sinkTables(b, a, c)
	}
}

// BenchmarkFig8ShuffleRefinement regenerates Figure 8: shuffle rounds vs
// quality and time at drp=8.
func BenchmarkFig8ShuffleRefinement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sinkTables(b, exp.Fig8(benchScale))
	}
}

// BenchmarkFig9InitialPartitioners regenerates Figure 9 (and, sharing
// the sweep, Figures 10a/10b/11a/11b): initial decomposition quality for
// HP/DG/LDG/METIS across the twelve datasets.
func BenchmarkFig9InitialPartitioners(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sinkTables(b, exp.Fig9to11(benchScale)...)
	}
}

// BenchmarkFig10Refinement isolates the refinement half of Figures
// 10a/10b on the com-lj stand-in with a DG initial decomposition.
func BenchmarkFig10Refinement(b *testing.B) {
	env := exp.PittEnv(2)
	env.Lambda = 0
	d, err := gen.DatasetByName("com-lj")
	if err != nil {
		b.Fatal(err)
	}
	g := d.Build(benchScale)
	g.UseDegreeWeights()
	initial := stream.DG(g, int32(env.K), stream.DefaultOptions())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := initial.Clone()
		exp.RefineParagon(g, p, env, 8, 8, 42)
	}
}

// BenchmarkTable4BFS regenerates Table 4: BFS JET for all algorithms on
// both clusters.
func BenchmarkTable4BFS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sinkTables(b, exp.Table4(benchScale, 1))
	}
}

// BenchmarkTable5SSSP regenerates Table 5: SSSP JET.
func BenchmarkTable5SSSP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sinkTables(b, exp.Table5(benchScale, 1))
	}
}

// BenchmarkFig12VolumePitt regenerates Figure 12 (Pitt volume breakdown).
func BenchmarkFig12VolumePitt(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sinkTables(b, exp.Fig12(benchScale, 1))
	}
}

// BenchmarkFig13VolumeGordon regenerates Figure 13 (Gordon breakdown).
func BenchmarkFig13VolumeGordon(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sinkTables(b, exp.Fig13(benchScale, 1))
	}
}

// BenchmarkFig14Dynamism regenerates Figure 14: BFS JET over five
// growing snapshots for all five algorithms.
func BenchmarkFig14Dynamism(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sinkTables(b, exp.Fig14(benchScale*2, 1))
	}
}

// BenchmarkFig15Scaling regenerates Figures 15/16: JET and refinement
// time along the friendster-p edge-sampled series.
func BenchmarkFig15Scaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a, c := exp.Fig15and16(benchScale, 1)
		sinkTables(b, a, c)
	}
}

// BenchmarkTable1Contention regenerates Table 1 from the topology model.
func BenchmarkTable1Contention(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sinkTables(b, exp.Table1())
	}
}

// BenchmarkLambdaSweep regenerates the §6 λ profiling sweep.
func BenchmarkLambdaSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sinkTables(b, exp.LambdaSweep(benchScale, 1))
	}
}

// ---- Ablations (DESIGN.md §6) ----

// BenchmarkAblationUniformCost: PARAGON vs UNIPARAGON quality.
func BenchmarkAblationUniformCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sinkTables(b, exp.AblationUniformCost(benchScale))
	}
}

// BenchmarkAblationKHop: boundary-shipping radius vs volume and quality.
func BenchmarkAblationKHop(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sinkTables(b, exp.AblationKHop(benchScale))
	}
}

// BenchmarkAblationServerPenalty: Eq. 10 spreading penalty on/off.
func BenchmarkAblationServerPenalty(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sinkTables(b, exp.AblationServerPenalty(benchScale))
	}
}

// ---- Component benchmarks ----

func benchGraph(b *testing.B) *graph.Graph {
	b.Helper()
	g := gen.RMAT(20000, 120000, 0.57, 0.19, 0.19, 1)
	g.UseDegreeWeights()
	return g
}

// BenchmarkStreamDG measures the DG streaming partitioner.
func BenchmarkStreamDG(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stream.DG(g, 40, stream.DefaultOptions())
	}
}

// BenchmarkStreamLDG measures the LDG streaming partitioner.
func BenchmarkStreamLDG(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stream.LDG(g, 40, stream.DefaultOptions())
	}
}

// BenchmarkMetisPartition measures the multilevel partitioner.
func BenchmarkMetisPartition(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		metis.Partition(g, 40, metis.Options{Seed: int64(i)})
	}
}

// BenchmarkParMetisRepartition measures scratch-remap repartitioning.
func BenchmarkParMetisRepartition(b *testing.B) {
	g := benchGraph(b)
	p := stream.DG(g, 40, stream.DefaultOptions())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := parmetis.Repartition(g, p, parmetis.Options{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAragonSerial measures full serial ARAGON over all pairs.
func BenchmarkAragonSerial(b *testing.B) {
	g := benchGraph(b)
	cl := topology.PittCluster(1)
	k := 20
	c, err := cl.PartitionCostMatrix(k, 0)
	if err != nil {
		b.Fatal(err)
	}
	initial := stream.DG(g, int32(k), stream.DefaultOptions())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := initial.Clone()
		if _, err := paragon.RefineSerial(g, p, c, aragon.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParagonParallel measures PARAGON at drp=8 on the same input
// as BenchmarkAragonSerial — the speedup is the Figure 7a story.
func BenchmarkParagonParallel(b *testing.B) {
	g := benchGraph(b)
	cl := topology.PittCluster(1)
	k := 20
	c, err := cl.PartitionCostMatrix(k, 0)
	if err != nil {
		b.Fatal(err)
	}
	nodeOf, _ := cl.NodeOf(k)
	initial := stream.DG(g, int32(k), stream.DefaultOptions())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := initial.Clone()
		if _, err := paragon.Refine(g, p, c, paragon.Config{DRP: 8, Shuffles: 0, Seed: 42, NodeOf: nodeOf}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBSPBFS measures a full simulated BFS job.
func BenchmarkBSPBFS(b *testing.B) {
	g := benchGraph(b)
	cl := topology.PittCluster(2)
	p := stream.DG(g, int32(cl.TotalCores()), stream.DefaultOptions())
	e, err := bsp.NewEngine(g, p, cl, bsp.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := apps.BFS(e, g, int32(i)%g.NumVertices()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGraphBuild measures CSR construction throughput.
func BenchmarkGraphBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		gen.RMAT(20000, 120000, 0.57, 0.19, 0.19, int64(i))
	}
}

// sinkTables keeps results alive so the compiler cannot elide the work.
func sinkTables(b *testing.B, tables ...*exp.Table) {
	b.Helper()
	for _, t := range tables {
		if len(t.Rows) == 0 {
			b.Fatalf("%s produced no rows", t.ID)
		}
	}
}

// ---- Extension studies ----

// BenchmarkStreamOrder sweeps streaming partitioner arrival orders.
func BenchmarkStreamOrder(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sinkTables(b, exp.StreamOrderStudy(benchScale))
	}
}

// BenchmarkMigrationService measures the §5 physical migration service.
func BenchmarkMigrationService(b *testing.B) {
	g := benchGraph(b)
	old := stream.DG(g, 40, stream.DefaultOptions())
	now := old.Clone()
	if _, err := paragon.RefineUniform(g, now, paragon.Config{DRP: 8, Shuffles: 2, Seed: 1}); err != nil {
		b.Fatal(err)
	}
	plan, err := migrate.NewPlan(old, now)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stores := migrate.BuildStores(g, old)
		if _, err := migrate.Execute(stores, plan, migrate.AppContext{}); err != nil {
			b.Fatal(err)
		}
	}
}
