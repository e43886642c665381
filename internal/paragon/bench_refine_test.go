package paragon

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"paragon/internal/faultsim"
	"paragon/internal/gen"
	"paragon/internal/graph"
	"paragon/internal/metis"
	"paragon/internal/obs"
	"paragon/internal/stream"
	"paragon/internal/topology"
)

// The refinement benchmarks run on a 100k-vertex power-law graph, the
// scale at which the per-pair full-graph scans of the naive hot path
// dominate. They are for measuring while you work; the numbers a change
// is judged by come from bench/ (bench/README.md).

var (
	refineBenchOnce  sync.Once
	refineBenchGraph *graph.Graph
)

func benchGraph100k() *graph.Graph {
	refineBenchOnce.Do(func() {
		g := gen.RMAT(100_000, 800_000, 0.57, 0.19, 0.19, 42)
		g.UseDegreeWeights()
		refineBenchGraph = g
	})
	return refineBenchGraph
}

// BenchmarkParagonRound measures one full PARAGON refinement round
// (grouping, shipping accounting, parallel group refinement, exchange)
// at the paper's drp=8 on 100k vertices.
func BenchmarkParagonRound(b *testing.B) {
	benchParagonRound(b, false, false)
}

// BenchmarkParagonRoundFault is the guard on the fault layer's
// instrumentation cost: the identical round with a fault fabric
// installed but a zero-fault schedule, so every fault point is consulted
// and none fires. The overhead target is < 5%; bench/README.md's
// faultsim.overhead_pct is the same pair measured end to end.
func BenchmarkParagonRoundFault(b *testing.B) {
	benchParagonRound(b, true, false)
}

// BenchmarkParagonRoundObs is the same guard on the observability layer:
// the identical round with a tracer and a metrics registry installed, so
// every emission site pays its full cost (bench/README.md's
// obs.overhead_pct is the same pair measured end to end); with both nil
// (BenchmarkParagonRound) the layer must cost nothing but nil checks.
func BenchmarkParagonRoundObs(b *testing.B) {
	benchParagonRound(b, false, true)
}

func benchParagonRound(b *testing.B, faultLayer, observed bool) {
	for _, k := range []int32{32, 128} {
		b.Run(map[int32]string{32: "k=32", 128: "k=128"}[k], func(b *testing.B) {
			g := benchGraph100k()
			p0 := stream.HP(g, k)
			cfg := Config{DRP: 8, Shuffles: 0, Seed: 1}
			if faultLayer {
				cfg.Fabric = faultsim.NewInjector(faultsim.Config{Seed: 1}) // rate 0: never fires
			}
			if observed {
				cfg.Trace = obs.NewTracer(0)
				cfg.Metrics = obs.NewRegistry()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				p := p0.Clone()
				b.StartTimer()
				if _, err := RefineUniform(g, p, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParagonRoundRMAT is the paper's case, and the in-tree mirror of
// bench/'s rmat100k_dg_k128 (same graph, decomposition, matrix and
// config; bench/ is where a change is judged, this is where it is
// profiled): a degree-weighted power-law graph partitioned by stream.DG
// into k = 128 and refined against the non-uniform PittCluster(7) matrix
// at λ = 1 — the only benchmark here whose seeds walk whole profile
// segments for Eq. 8 (the others run RefineUniform). DESIGN.md §9's
// "where an rmat Refine goes" table is this benchmark under -cpuprofile.
func BenchmarkParagonRoundRMAT(b *testing.B) {
	const k = 128
	g := benchGraph100k()
	p0 := stream.DG(g, k, stream.DefaultOptions())
	cl := topology.PittCluster(7)
	c, err := cl.PartitionCostMatrix(k, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Seed = 42
	if cfg.NodeOf, err = cl.NodeOf(k); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := p0.Clone()
		b.StartTimer()
		if _, err := Refine(g, p, c, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParagonRoundMesh is the other end of the input space: a
// 160k-vertex mesh METIS already partitioned well, so 2 % of the vertices
// are boundary, few pairs move anything, and what a Refine costs is what
// it does per vertex and per bucket member rather than per candidate —
// the shape of bench/'s mesh1m_metis_k32 at a size a unit run affords.
// B/op and ns/op here are the in-tree reading of "pay for the boundary,
// not the graph" (DESIGN.md §14): BuildIndex, the shadow and the mask
// still scale with |V|, the profile and the candidate gather must not.
func BenchmarkParagonRoundMesh(b *testing.B) {
	const k = 32
	g := gen.Mesh2D(400, 400)
	p0 := metis.Partition(g, k, metis.Options{Seed: 1})
	c, err := topology.GordonCluster(2).PartitionCostMatrix(k, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := p0.Clone()
		b.StartTimer()
		if _, err := Refine(g, p, c, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParagonRoundWorkers is the worker-scaling curve of the
// pair-level scheduler: the identical round at Workers ∈ {1, 2, 4,
// GOMAXPROCS}. Every point computes the bit-identical decomposition —
// only the wall clock (and per-worker scratch) may differ
// (bench/README.md's paragon.speedup is the recorded point of the curve).
func BenchmarkParagonRoundWorkers(b *testing.B) {
	gomax := runtime.GOMAXPROCS(0)
	points := []int{1, 2, 4}
	if gomax != 1 && gomax != 2 && gomax != 4 {
		points = append(points, gomax)
	}
	for _, k := range []int32{32, 128} {
		for _, w := range points {
			b.Run(fmt.Sprintf("k=%d/workers=%d", k, w), func(b *testing.B) {
				g := benchGraph100k()
				p0 := stream.HP(g, k)
				cfg := Config{DRP: 8, Shuffles: 0, Seed: 1, Workers: w}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					p := p0.Clone()
					b.StartTimer()
					if _, err := RefineUniform(g, p, cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
