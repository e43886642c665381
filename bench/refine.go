package bench

import (
	"bytes"
	"math/rand"
	"runtime"
	"strconv"
	"strings"

	"paragon/internal/apps"
	"paragon/internal/aragon"
	"paragon/internal/bsp"
	"paragon/internal/faultsim"
	"paragon/internal/graph"
	"paragon/internal/migrate"
	"paragon/internal/obs"
	"paragon/internal/paragon"
	"paragon/internal/partition"
	"paragon/internal/portfolio"
	"paragon/internal/topology"
)

// minReps is the fewest timed calls a measuring window may hold.
const minReps = 5

// probeReps is how often a standalone layer probe repeats.
const probeReps = 3

type refineInput struct {
	g      *graph.Graph
	p0     *partition.Partitioning
	c      [][]float64
	nodeOf []int
	cl     *topology.Cluster
}

// outcome is one verified refinement call: the refined clone, what a
// portfolio call reported, its wall time, and what it allocated.
type outcome struct {
	p                *partition.Partitioning
	port             portfolio.Stats
	wall             float64
	mallocs, allocMB float64
}

// refineRun is one pass over a refine workload: the built input, the
// workload's configuration, and the reusable portfolio pool (one pool
// across calls, as the issue fixes).
type refineRun struct {
	r    *rec
	w    refineWorkload
	in   refineInput
	cfg  paragon.Config
	pool portfolio.Pool
}

func (x *refineRun) name() string {
	if x.w.portfolio {
		return "portfolio.RefineWithPool"
	}
	return "paragon.Refine"
}

// call is one refinement of a fresh clone of the input, garbage collected
// beforehand and timed inside a span of tr. The allocation counters are
// read immediately around the call, and the per-call correctness gate runs
// after it, both outside the timed region. Every call of a pass refines
// the same input under the same seed, so the assignment hash must repeat
// across calls, across worker counts, and with a tracer, registry or
// injector installed. The Shuffles=0 probes refine less and hash under
// their own key.
func (x *refineRun) call(tr *Tracer, cfg paragon.Config) outcome {
	r, in := x.r, x.in
	o := outcome{p: in.p0.Clone()}
	runtime.GC()
	var m0, m1 runtime.MemStats
	var err error
	runtime.ReadMemStats(&m0)
	o.wall = timed(tr, x.name(), func() {
		if x.w.portfolio {
			o.port, err = portfolio.RefineWithPool(in.g, o.p, in.c, cfg, &x.pool)
		} else {
			_, err = paragon.Refine(in.g, o.p, in.c, cfg)
		}
	})
	runtime.ReadMemStats(&m1)
	o.mallocs = float64(m1.Mallocs - m0.Mallocs)
	o.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)

	r.check(err == nil, "%s: %v", x.name(), err)
	r.check(o.p.Validate(in.g) == nil, "refined decomposition invalid")
	r.check(partition.BuildIndex(in.g, o.p).Validate() == nil, "fresh index over the result invalid")
	key := "assign"
	if cfg.Shuffles != x.cfg.Shuffles {
		key = "assign_round0"
	}
	r.hash(key, partition.PackAssign(o.p.Assign, o.p.K).Hash64())
	if x.w.portfolio {
		r.check(!o.port.InputScore.Better(o.port.SelectedScore), "portfolio selected a score worse than its input")
	}
	return o
}

// setupRefine builds the workload's input and keeps the last build.
func setupRefine(r *rec, w refineWorkload) refineInput {
	var in refineInput
	r.setup(func(stage func(metric, span string, f func())) {
		stage("gen.build_s", "gen.build", func() { in.g = w.gen(r.opt.InputSeed) })
		stage(w.partName+".partition_s", w.partName+".partition", func() { in.p0 = w.part(in.g, r.opt.InputSeed) })
		stage("topology.costmatrix_s", "topology.costmatrix", func() {
			in.cl = w.cluster()
			var err error
			if w.uniform {
				in.c = topology.UniformMatrix(int(w.k))
			} else {
				in.c, err = in.cl.PartitionCostMatrix(int(w.k), 1)
				if err == nil {
					in.nodeOf, err = in.cl.NodeOf(int(w.k))
				}
			}
			r.check(err == nil, "cost matrix: %v", err)
		})
	})
	return in
}

func runRefine(r *rec, w refineWorkload) {
	root := r.tr.Begin("workload")
	defer func() { r.tr.End(root) }()

	x := &refineRun{r: r, w: w, in: setupRefine(r, w), cfg: w.config()}
	in := x.in
	x.cfg.Seed = r.opt.InputSeed
	x.cfg.NodeOf = in.nodeOf
	x.cfg.Workers = r.opt.Workers
	r.check(in.p0.Validate(in.g) == nil, "input decomposition invalid")

	// Warm-up at workers=1: it fills the pools and lazy state, and fixes
	// the reference hash every worker count must reproduce.
	w1 := x.cfg
	w1.Workers = 1
	id := r.tr.Begin("warmup")
	x.call(r.tr, w1)
	r.tr.End(id)

	var wall []float64
	var last outcome
	if r.tr == nil {
		r.window(minReps, func(int) {
			last = x.call(nil, x.cfg)
			wall = append(wall, last.wall)
		})
	} else {
		wall, last = x.tracedWindow()
	}
	r.setMean("refine_s", wall, 1, "Σ call time / calls")
	r.set("edges_per_s", float64(in.g.NumEdges())*float64(len(wall))/sum(wall), "graph edges × calls / Σ call time")
	r.peakRSS()

	input := partition.ComputeScore(in.g, in.p0, nil, in.c, x.cfg.Alpha)
	var output partition.Score
	tScore := make([]float64, probeReps)
	for i := range tScore {
		tScore[i] = timed(r.tr, "partition.ComputeScore", func() {
			output = partition.ComputeScore(in.g, last.p, in.p0.Assign, in.c, x.cfg.Alpha)
		})
	}
	r.setSamples("partition.compute_score_s", tScore, 1, "probe")
	r.set("cost_ratio", output.Cost()/input.Cost(), "(Eq. 2 + Eq. 3 of the result) / Eq. 2 of the input")
	r.set("skewness", output.Skewness, "Eq. 4 of the result")
	r.hash("edge_cut", uint64(output.EdgeCut))

	verifyMigration(r, in, last.p)
	if r.tr != nil {
		x.probeLayers(sum(wall)/float64(len(wall)), last)
		r.runtimeMetrics()
	}
}

// tracedWindow is the traced pass's measuring window: it interleaves four
// variants of the same call so that each sees the same machine state —
// plain with the harness tracer off, plain with it on, the deterministic
// obs tracer+registry installed, and a zero-rate fault injector installed
// — and reports the three overheads against plain. All four must produce
// the same assignment. It returns the plain wall times and the last plain
// outcome.
func (x *refineRun) tracedWindow() ([]float64, outcome) {
	r := x.r
	var last outcome
	var plain, traced, withObs, withFault, allocs, allocMB []float64
	var reg *obs.Registry
	r.window(probeReps, func(int) {
		last = x.call(nil, x.cfg)
		plain = append(plain, last.wall)
		allocs, allocMB = append(allocs, last.mallocs), append(allocMB, last.allocMB)

		traced = append(traced, x.call(r.tr, x.cfg).wall)

		oc := x.cfg
		oc.Trace, oc.Metrics = obs.NewTracer(0), obs.NewRegistry()
		reg = oc.Metrics
		withObs = append(withObs, x.call(nil, oc).wall)

		fc := x.cfg
		fc.Fabric = faultsim.NewInjector(faultsim.Config{Seed: 1, Rate: 0})
		withFault = append(withFault, x.call(nil, fc).wall)
	})
	pct := func(xs []float64) float64 { return (median(xs)/median(plain) - 1) * 100 }
	r.set("trace.overhead_pct", pct(traced), "harness spans on vs off around the same call")
	r.set("obs.overhead_pct", pct(withObs), "obs.Tracer + obs.Registry installed vs nil")
	r.set("faultsim.overhead_pct", pct(withFault), "zero-rate injector installed vs nil")
	r.setSamples("paragon.allocs_per_refine", allocs, 1, "")
	r.setSamples("paragon.alloc_mb_per_refine", allocMB, 1, "")
	registryMetrics(r, reg)
	return plain, last
}

// registryMetrics reads the deterministic counters one call left in its
// obs.Registry, through the registry's own Prometheus text form.
func registryMetrics(r *rec, reg *obs.Registry) {
	var buf bytes.Buffer
	if err := obs.WriteProm(&buf, reg); err != nil {
		r.check(false, "obs.WriteProm: %v", err)
		return
	}
	vals := map[string]float64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if name, val, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				vals[name] = v
			}
		}
	}
	for metric, counter := range map[string]string{
		"paragon.pairs_n":            "refine_pairs_total",
		"paragon.waves_n":            "refine_waves_total",
		"paragon.moves_n":            "refine_moves_total",
		"paragon.shipped_vertices_n": "ship_boundary_vertices_total",
		"paragon.exchange_bytes_n":   "exchange_bytes_total",
	} {
		if v, ok := vals[counter]; ok {
			r.set(metric, v, "obs counter "+counter)
		}
	}
	if pairs := vals["refine_pair_moves_count"]; pairs > 0 {
		idle := vals[`refine_pair_moves_bucket{le="0"}`]
		r.set("paragon.productive_pair_ratio", (pairs-idle)/pairs, "pairs with at least one kept move / pairs, from the refine_pair_moves histogram")
	}
}

// verifyMigration is the migration half of the gate: the plan from the
// input to the refined decomposition must execute and leave every vertex
// in exactly the store of its new partition.
func verifyMigration(r *rec, in refineInput, refined *partition.Partitioning) {
	var plan *migrate.Plan
	var err error
	d := timed(r.tr, "migrate.NewPlan", func() { plan, err = migrate.NewPlan(in.p0, refined) })
	r.check(err == nil, "migrate.NewPlan: %v", err)
	if err != nil {
		return
	}
	r.set("migrate.plan_s", d, "")
	r.set("migrate.moved_frac", float64(len(plan.Moves))/float64(in.g.NumVertices()), "")
	var stores []*migrate.Store
	timed(r.tr, "migrate.BuildStores", func() { stores = migrate.BuildStores(in.g, in.p0) })
	d = timed(r.tr, "migrate.Execute", func() { _, err = migrate.Execute(stores, plan, migrate.AppContext{}) })
	r.check(err == nil, "migrate.Execute: %v", err)
	r.set("migrate.execute_s", d, "")
	timed(r.tr, "migrate.Verify", func() { err = migrate.Verify(stores, in.g, refined) })
	r.check(err == nil, "migrate.Verify: %v", err)
}

// probeLayers runs the standalone layer probes of the traced pass. They
// are probes on the same input, not children of the refinement call: each
// times one layer's public entry point by itself.
func (x *refineRun) probeLayers(refineS float64, last outcome) {
	r, in, w := x.r, x.in, x.w
	id := r.tr.Begin("probes")
	defer func() { r.tr.End(id) }()

	repeat := func(span string, cfg paragon.Config) float64 {
		xs := make([]float64, probeReps)
		for i := range xs {
			sid := r.tr.Begin(span)
			xs[i] = x.call(r.tr, cfg).wall
			r.tr.End(sid)
		}
		return median(xs)
	}
	w1 := x.cfg
	w1.Workers = 1
	refineW1 := repeat("probe:refine_w1", w1)
	r.set("paragon.refine_w1_s", refineW1, "probe: the same call at workers=1")
	if runtime.NumCPU() >= r.opt.Workers {
		r.set("paragon.speedup", refineW1/refineS, "derived: refine_w1_s / refine_s of this pass")
	} else {
		r.note("paragon.speedup omitted: %d online CPUs for %d workers", runtime.NumCPU(), r.opt.Workers)
	}
	r0, r0w1 := x.cfg, w1
	r0.Shuffles, r0w1.Shuffles = 0, 0
	round0 := repeat("probe:round0", r0)
	round0W1 := repeat("probe:round0_w1", r0w1)
	r.set("paragon.round0_s", round0, "probe: Shuffles=0")
	r.set("paragon.round0_w1_s", round0W1, "probe: Shuffles=0 at workers=1")
	if x.cfg.Shuffles > 0 {
		r.set("paragon.per_shuffle_s", (refineS-round0)/float64(x.cfg.Shuffles), "derived: (refine_s of this pass - round0_s) / shuffles")
	}

	var ix *partition.Index
	tIndex := make([]float64, probeReps)
	for i := range tIndex {
		p := in.p0.Clone()
		tIndex[i] = timed(r.tr, "partition.BuildIndex", func() { ix = partition.BuildIndex(in.g, p) })
	}
	r.setSamples("partition.build_index_s", tIndex, 1, "probe")
	r.set("partition.boundary_frac", float64(len(ix.Boundary()))/float64(in.g.NumVertices()), "boundary vertices / vertices of the input")

	// One round-0 tournament over a seeded grouping dealt like the
	// driver's: the pair kernel and its candidate seeding with no
	// scheduler, no waves and no shipping around them.
	eff := x.cfg.WithDefaults(w.k)
	pairs := tournament(w.k, eff.DRP, x.cfg.Seed)
	var cands []int32
	var candidates int
	tCand := timed(r.tr, "partition.AppendPairCandidates", func() {
		for _, pr := range pairs {
			cands = ix.AppendPairCandidates(cands[:0], pr[0], pr[1], nil)
			candidates += len(cands)
		}
	})
	r.set("partition.pair_candidates_s", tCand, "probe: one round-0 tournament on the input")
	ref := aragon.NewRefiner(in.g, ix, eff.AragonConfig())
	loads := ix.Partitioning().Weights(in.g)
	maxLoad := partition.BalanceBound(in.g, w.k, eff.MaxImbalance)
	var moves int
	tPairs := timed(r.tr, "aragon.RefinePair", func() {
		for _, pr := range pairs {
			moves += ref.RefinePair(in.p0.Assign, pr[0], pr[1], in.c, loads, maxLoad, nil).Moves
		}
	})
	r.check(ix.Validate() == nil, "index invalid after the serial pair probe")
	r.set("aragon.pairs_s", tPairs, "probe: serial RefinePair over that tournament, no scheduler")
	r.set("aragon.pairs_n", float64(len(pairs)), "")
	r.set("aragon.moves_per_pair", float64(moves)/float64(len(pairs)), "")
	if candidates > 0 {
		r.set("aragon.ns_per_candidate", tPairs*1e9/float64(candidates), "aragon.pairs_s over the candidates seeded on the input")
	}
	if !w.portfolio {
		r.set("paragon.sched_overhead_s", round0W1-median(tIndex)-tPairs,
			"derived: round0_w1_s - build_index_s - aragon.pairs_s")
	}

	if w.portfolio {
		st := last.port
		r.set("portfolio.member_cpu_s", st.CPUTime.Seconds(), "")
		r.set("portfolio.cpu_utilization", st.CPUTime.Seconds()/st.WallTime.Seconds(), "member CPU / wall of the call")
		r.set("portfolio.combine_diff_n", float64(st.CombineDiff), "")
		applied := 0.0
		if st.CombineApplied {
			applied = 1
		}
		r.set("portfolio.combine_applied", applied, "")
		if st.Winner >= 0 {
			r.set("portfolio.winner_cost_ratio", st.Members[st.Winner].Score.Cost()/st.InputScore.Cost(), "best single member, before the combine")
		}
	}

	if w.bfs {
		before, _ := simulateBFS(r, in, in.p0)
		after, d := simulateBFS(r, in, last.p)
		r.set("bsp.bfs_s", d, "wall time of the simulated BFS on the refined decomposition")
		r.set("bsp.bfs_jet_before", before, "")
		r.set("bsp.bfs_jet_after", after, "")
		if before > 0 {
			r.set("bsp.bfs_jet_ratio", after/before, "")
		}
	}
}

// tournament returns every pair of one refinement round: the k
// partitions dealt round-robin from a seeded permutation into drp groups,
// each group's circle tournament appended round by round.
func tournament(k int32, drp int, seed int64) [][2]int32 {
	groups := make([][]int32, drp)
	for i, p := range rand.New(rand.NewSource(seed)).Perm(int(k)) {
		groups[i%drp] = append(groups[i%drp], int32(p))
	}
	var pairs [][2]int32
	for _, g := range groups {
		for t := 0; t < len(g)+(len(g)&1)-1; t++ {
			pairs = paragon.AppendTournamentRound(pairs, g, t)
		}
	}
	return pairs
}

// simulateBFS runs the simulated BFS application from vertex 0 on the
// workload's modelled cluster and returns its JET and wall time.
func simulateBFS(r *rec, in refineInput, p *partition.Partitioning) (jet, wall float64) {
	var res bsp.Result
	var err error
	wall = timed(r.tr, "apps.BFS", func() {
		var e *bsp.Engine
		if e, err = bsp.NewEngine(in.g, p, in.cl, bsp.Options{}); err == nil {
			_, res, err = apps.BFS(e, in.g, 0)
		}
	})
	r.check(err == nil, "simulated BFS: %v", err)
	return res.JET, wall
}
