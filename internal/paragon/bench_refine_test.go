package paragon

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"paragon/internal/aragon"
	"paragon/internal/faultsim"
	"paragon/internal/gen"
	"paragon/internal/graph"
	"paragon/internal/metis"
	"paragon/internal/obs"
	"paragon/internal/partition"
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

var (
	meshBenchOnce sync.Once
	meshBenchIn   struct {
		g   *graph.Graph
		p   *partition.Partitioning
		c   [][]float64
		cfg Config
	}
)

// BenchmarkParagonRoundMeshBench is bench/'s mesh1m_metis_k32 call at full
// size, input seed 42: Mesh2D(1000, 1000) cut by METIS into k = 32 with
// seed 42, refined against GordonCluster(2) at λ = 1 with its NodeOf and
// DefaultConfig at seed 42. Its set-up takes seconds and is paid once per
// process. DESIGN.md §14's "where a Refine call goes" mesh column is this
// benchmark, phase by phase.
func BenchmarkParagonRoundMeshBench(b *testing.B) {
	const k = 32
	meshBenchOnce.Do(func() {
		in := &meshBenchIn
		in.g = gen.Mesh2D(1000, 1000)
		in.p = metis.Partition(in.g, k, metis.Options{Seed: 42})
		cl := topology.GordonCluster(2)
		var err error
		if in.c, err = cl.PartitionCostMatrix(k, 1); err != nil {
			b.Fatal(err)
		}
		in.cfg = DefaultConfig()
		in.cfg.Seed = 42
		if in.cfg.NodeOf, err = cl.NodeOf(k); err != nil {
			b.Fatal(err)
		}
	})
	in := &meshBenchIn
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := in.p.Clone()
		b.StartTimer()
		if _, err := Refine(in.g, p, in.c, in.cfg); err != nil {
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

// round0Pairs runs one round-0 tournament of the rmat100k_dg_k128 input
// (bench/'s input seed 42: groups dealt from rand.Perm(k) by the seed, as
// bench/'s aragon.pairs_s probe deals them) on a fresh copy of the input,
// pair after pair, and returns the moves kept and the assignment's hash.
// scan is that probe's kernel: RefinePair on a bare Index, whose seeds scan
// each candidate's adjacency over the live assignment. Otherwise the pairs
// run one per wave on a one-worker WaveEngine with a neighbor profile, the
// mask repaired at every barrier as a portfolio member's is: the kernel
// round 0 runs, its first repair (the profile's first materialization)
// included. Only the pairs and the repairs are timed.
func round0Pairs(b *testing.B, scan bool) (moves int, hash uint64) {
	const k, seed = 128, 42
	g := benchGraph100k()
	p0 := round0Input.p
	cfg := DefaultConfig().WithDefaults(k)
	cfg.Workers = 1
	groups := make([][]int32, cfg.DRP)
	for i, q := range rand.New(rand.NewSource(seed)).Perm(k) {
		groups[i%cfg.DRP] = append(groups[i%cfg.DRP], int32(q))
	}
	var pairs [][2]int32
	for _, grp := range groups {
		for t := 0; t < len(grp)+(len(grp)&1)-1; t++ {
			pairs = AppendTournamentRound(pairs, grp, t)
		}
	}
	maxLoad := partition.BalanceBound(g, k, cfg.MaxImbalance)

	b.StopTimer()
	p := p0.Clone()
	ix := partition.BuildIndex(g, p)
	if scan {
		ref := aragon.NewRefiner(g, ix, cfg.AragonConfig())
		loads := p.Weights(g)
		b.StartTimer()
		for _, pr := range pairs {
			moves += ref.RefinePair(p0.Assign, pr[0], pr[1], round0Input.c, loads, maxLoad, nil).Moves
		}
		b.StopTimer()
	} else {
		cs, err := partition.CheckCosts(round0Input.c, k)
		if err != nil {
			b.Fatal(err)
		}
		profile, err := partition.NewNeighborProfile(g, k)
		if err != nil {
			b.Fatal(err)
		}
		var e WaveEngine
		e.Open(g, ix, cs, p0.Assign, maxLoad, cfg, profile)
		e.Tasks = pairs
		e.Waves = append(e.Waves[:0], 0)
		for ti := range pairs {
			e.Waves = append(e.Waves, int32(ti+1))
		}
		b.StartTimer()
		e.Repair()
		e.Run(func(_ int, ti, _ int32) {
			moves += e.Results[ti].Moves
			e.Repair()
		})
		b.StopTimer()
		e.Close()
	}
	if err := ix.Validate(); err != nil {
		b.Fatal(err)
	}
	return moves, partition.PackAssign(p.Assign, k).Hash64()
}

var round0Input struct {
	once sync.Once
	p    *partition.Partitioning
	c    [][]float64
}

// BenchmarkRound0Pairs times bench/'s aragon.pairs_s probe (scan) against
// the same tournament through round 0's own kernel (profile); both must
// keep the same moves and reach the same assignment. DESIGN.md §14 ("What
// aragon.pairs_s measures") has the reading.
func BenchmarkRound0Pairs(b *testing.B) {
	round0Input.once.Do(func() {
		const k = 128
		round0Input.p = stream.DG(benchGraph100k(), k, stream.DefaultOptions())
		var err error
		if round0Input.c, err = topology.PittCluster(7).PartitionCostMatrix(k, 1); err != nil {
			b.Fatal(err)
		}
	})
	scanMoves, scanHash := round0Pairs(b, true)
	profMoves, profHash := round0Pairs(b, false)
	if scanMoves != profMoves || scanHash != profHash {
		b.Fatalf("scan kept %d moves (hash %#x), profile %d (hash %#x)", scanMoves, scanHash, profMoves, profHash)
	}
	for _, kind := range []string{"scan", "profile"} {
		b.Run(kind, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if moves, hash := round0Pairs(b, kind == "scan"); moves != scanMoves || hash != scanHash {
					b.Fatalf("%s: %d moves (hash %#x), want %d (hash %#x)", kind, moves, hash, scanMoves, scanHash)
				}
			}
		})
	}
}
