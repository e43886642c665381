// Command paragon partitions a graph with a streaming heuristic and then
// refines the decomposition with PARAGON against a modeled cluster
// topology, reporting the quality metrics of §3 before and after.
//
// Usage:
//
//	paragon -in graph.metis -k 40 -cluster pitt -nodes 2 -lambda 1 \
//	        -partitioner dg -drp 8 -shuffles 8 -out assignment.txt
//
// The input is a METIS .graph file (as written by gengraph) or an edge
// list (-format edgelist).
//
// Fault tolerance can be exercised with -fault-rate/-fault-seed: a
// deterministic injector (internal/faultsim) crashes group servers,
// delays stragglers, and drops exchange messages at the given rate, and
// refinement degrades gracefully — a lost group costs quality, never
// validity. The same (-seed, -fault-seed, -fault-rate) triple replays
// the identical run bit-for-bit.
//
// -workers sizes the pair-level worker pool (default GOMAXPROCS); the
// output is bit-identical for every value. -cpuprofile/-memprofile write
// runtime/pprof profiles for diagnosing scaling regressions:
//
//	paragon -in graph.metis -k 128 -workers 8 -cpuprofile cpu.pb.gz
//	go tool pprof cpu.pb.gz
//
// Observability (DESIGN.md §13): -trace writes the structured refinement
// event stream as JSONL, -metrics writes the per-phase counters in the
// Prometheus text format, -summary prints a human per-phase table. Both
// files are deterministic — stamped with virtual ticks, never wall
// clock — so the same seeded run produces byte-identical files at any
// -workers value. -pprof-http serves net/http/pprof for live profiling
// of long refinements:
//
//	paragon -in graph.metis -trace run.jsonl -metrics run.prom -summary
//
// The serving layer (DESIGN.md §16): -dir-journal runs the refinement
// against an epoch-versioned partition directory, writes the directory's
// crash-safe epoch journal to the given path, and proves it by
// recovering the journal and comparing the recovered assignment hash
// against the live directory:
//
//	paragon -in graph.metis -dir-journal dir.journal
package main

import (
	"bufio"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"runtime/pprof"

	"paragon/internal/dir"
	"paragon/internal/graph"
	"paragon/internal/metis"
	"paragon/internal/obs"
	"paragon/internal/paragon"
	"paragon/internal/partition"
	"paragon/internal/portfolio"
	"paragon/internal/stream"
	"paragon/internal/topology"
)

func main() {
	in := flag.String("in", "", "input graph file (required)")
	format := flag.String("format", "metis", "input format: metis, edgelist, or binary")
	k := flag.Int("k", 0, "number of partitions (default: all cores of the cluster)")
	clusterName := flag.String("cluster", "pitt", "cluster model: pitt, gordon, or uma")
	nodes := flag.Int("nodes", 2, "number of compute nodes")
	lambda := flag.Float64("lambda", 0, "contention degree λ of Eq. 12")
	partitioner := flag.String("partitioner", "dg", "initial partitioner: hp, dg, ldg, fennel, metis, or metis-kway")
	drp := flag.Int("drp", 8, "degree of refinement parallelism")
	workers := flag.Int("workers", 0, "pair-level refinement workers (0 = GOMAXPROCS; result is identical for any value)")
	shuffles := flag.Int("shuffles", 8, "shuffle refinement rounds")
	khop := flag.Int("khop", 0, "boundary expansion hops shipped to group servers")
	alpha := flag.Float64("alpha", 10, "communication/migration weight α")
	eps := flag.Float64("eps", 0.02, "allowed load imbalance")
	seed := flag.Int64("seed", 42, "refinement seed")
	faultRate := flag.Float64("fault-rate", 0, "per-fault-point probability of injected faults (0 disables)")
	faultSeed := flag.Int64("fault-seed", 1, "seed of the deterministic fault injector")
	portfolioSize := flag.Int("portfolio", 0, "portfolio members: race this many seeded refinements on the worker pool and keep the best (0 = plain refinement)")
	portfolioCombine := flag.Int("portfolio-combine", 2, "overlay the top members with the combine operator (< 2 disables)")
	out := flag.String("out", "", "write the final vertex->partition assignment here")
	topo := flag.Bool("topo", false, "print the modeled cluster topology and exit")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile here (pprof format)")
	memProfile := flag.String("memprofile", "", "write a heap profile here on exit (pprof format)")
	traceOut := flag.String("trace", "", "write the structured refinement event stream here (JSONL, deterministic)")
	metricsOut := flag.String("metrics", "", "write refinement metrics here (Prometheus text format, deterministic)")
	summary := flag.Bool("summary", false, "print a per-phase metrics summary table after refinement")
	pprofHTTP := flag.String("pprof-http", "", "serve net/http/pprof on this address (e.g. localhost:6060) during the run")
	dirJournal := flag.String("dir-journal", "", "serve the refinement through a partition directory and write its epoch journal here (recovery-verified)")
	flag.Parse()

	if *pprofHTTP != "" {
		go func() {
			if err := http.ListenAndServe(*pprofHTTP, nil); err != nil {
				fmt.Fprintf(os.Stderr, "paragon: pprof server: %v\n", err)
			}
		}()
	}

	if *cpuProfile != "" {
		pf, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := pf.Close(); err != nil {
				fatal(err)
			}
		}()
	}
	if *memProfile != "" {
		defer func() {
			mf, err := os.Create(*memProfile)
			if err != nil {
				fatal(err)
			}
			runtime.GC() // settle the heap so the profile shows live data
			if err := pprof.WriteHeapProfile(mf); err != nil {
				fatal(err)
			}
			if err := mf.Close(); err != nil {
				fatal(err)
			}
		}()
	}

	cl, err := topology.ClusterByName(*clusterName, *nodes)
	if err != nil {
		fatal(err)
	}
	if *topo {
		fmt.Print(cl.Describe())
		return
	}

	if *in == "" {
		fatal(fmt.Errorf("-in is required"))
	}
	g, err := graph.ReadFile(*in, *format)
	if err != nil {
		fatal(err)
	}

	if *k == 0 {
		*k = cl.TotalCores()
	}
	c, err := cl.PartitionCostMatrix(*k, *lambda)
	if err != nil {
		fatal(err)
	}
	nodeOf, err := cl.NodeOf(*k)
	if err != nil {
		fatal(err)
	}

	var p *partition.Partitioning
	switch *partitioner {
	case "hp":
		p = stream.HP(g, int32(*k))
	case "dg":
		p = stream.DG(g, int32(*k), stream.Options{Eps: *eps})
	case "ldg":
		p = stream.LDG(g, int32(*k), stream.Options{Eps: *eps})
	case "fennel":
		p = stream.Fennel(g, int32(*k), stream.Options{Eps: *eps})
	case "metis":
		p = metis.Partition(g, int32(*k), metis.Options{Eps: *eps, Seed: *seed})
	case "metis-kway":
		p = metis.PartitionKWay(g, int32(*k), metis.Options{Eps: *eps, Seed: *seed})
	default:
		fatal(fmt.Errorf("unknown partitioner %q", *partitioner))
	}

	report := func(stage string, q partition.Quality) {
		fmt.Printf("%-8s edge-cut %-10d comm-cost %-14.0f skew %.4f\n", stage, q.EdgeCut, q.CommCost, q.Skewness)
	}
	report("initial", partition.Evaluate(g, p, c, *alpha))

	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer(0)
	}
	var registry *obs.Registry
	if *metricsOut != "" || *summary {
		registry = obs.NewRegistry()
	}

	// The serving layer: every committed round becomes one directory
	// epoch; the journal written at the end replays to the final state.
	var directory *dir.Directory
	if *dirJournal != "" {
		var derr error
		directory, derr = dir.New(p.Assign, p.K, dir.Options{Trace: tracer, Metrics: registry})
		if derr != nil {
			fatal(derr)
		}
	}

	var dirEpochs int
	var pubAborts int
	if *portfolioSize > 0 {
		pst, err := portfolio.Refine(g, p, c, paragon.Config{
			DRP: *drp, Workers: *workers, Shuffles: *shuffles, KHop: *khop,
			Alpha: *alpha, MaxImbalance: *eps, Seed: *seed,
			FaultRate: *faultRate, FaultSeed: *faultSeed,
			Trace: tracer, Metrics: registry,
			Portfolio: paragon.PortfolioConfig{Size: *portfolioSize, CombineTop: *portfolioCombine},
		})
		if err != nil {
			fatal(err)
		}
		report("refined", partition.Evaluate(g, p, c, *alpha))
		fmt.Printf("portfolio:  %d members (%d forfeited), winner %d, wall %s, member cpu %s\n",
			pst.Size, pst.Forfeits, pst.Winner, pst.WallTime.Round(0), pst.CPUTime.Round(0))
		for m, ms := range pst.Members {
			mark := " "
			if m == pst.Winner {
				mark = "*"
			}
			if ms.Forfeited {
				fmt.Printf("  member %2d%s seed %-20d forfeited\n", m, mark, ms.Seed)
				continue
			}
			fmt.Printf("  member %2d%s seed %-20d cost %-14.0f cut %-10d skew %.4f moves %d\n",
				m, mark, ms.Seed, ms.Score.Cost(), ms.Score.EdgeCut, ms.Score.Skewness, ms.Moves)
		}
		if pst.RunnerUp >= 0 {
			fmt.Printf("combine:    members %d+%d, diff %d vertices, %d pairs in %d waves, %d moves, gain %.0f, applied=%v\n",
				pst.Winner, pst.RunnerUp, pst.CombineDiff, pst.CombinePairs, pst.CombineWaves, pst.CombineMoves, pst.CombineGain, pst.CombineApplied)
		}
		fmt.Printf("selected:   cost %.0f (input %.0f)\n", pst.SelectedScore.Cost(), pst.InputScore.Cost())
		// The portfolio commits no per-round epochs — members race on
		// private scratch — so flip the directory once to the selection.
		if directory != nil && pst.Winner >= 0 {
			if _, err := directory.PublishAssign(p.Assign); err != nil {
				fatal(err)
			}
			dirEpochs = 1
		}
	} else {
		st, err := paragon.Refine(g, p, c, paragon.Config{
			DRP: *drp, Workers: *workers, Shuffles: *shuffles, KHop: *khop,
			Alpha: *alpha, MaxImbalance: *eps, Seed: *seed, NodeOf: nodeOf,
			FaultRate: *faultRate, FaultSeed: *faultSeed,
			Trace: tracer, Metrics: registry, Directory: directory,
		})
		if err != nil {
			fatal(err)
		}
		dirEpochs, pubAborts = st.DirectoryEpochs, st.Faults.PublishAborts
		report("refined", partition.Evaluate(g, p, c, *alpha))
		fmt.Printf("refinement: master=%d drp=%d rounds=%d pairs=%d moves=%d gain=%.0f time=%s\n",
			st.Master, st.DRP, st.Rounds, st.PairsRefined, st.Moves, st.Gain, st.RefinementTime.Round(0))
		fmt.Printf("migration:  %d vertices, cost %.0f (%.1f%% of graph)\n",
			st.MigratedVertices, st.MigrationCost,
			100*float64(st.MigratedVertices)/float64(g.NumVertices()))
		fmt.Printf("volume:     shipped %d boundary vertices (%d half-edges), %d exchange bytes\n",
			st.BoundaryShipped, st.ShippedEdgeVolume, st.LocationExchangeBytes)
		if *faultRate > 0 {
			fmt.Printf("faults:     %d crashed groups, %d straggler drops, %d degraded; %d exchange retries, %d aborts; %d virtual ticks (%d backoff)\n",
				st.Faults.CrashedGroups, st.Faults.StragglerDrops, st.Faults.DegradedGroups,
				st.Faults.ExchangeRetries, st.Faults.ExchangeAborts,
				st.Faults.VirtualTicks, st.Faults.BackoffTicks)
		}
	}

	if tracer != nil {
		tf, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := obs.WriteJSONL(tf, tracer); err != nil {
			fatal(err)
		}
		if err := tf.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote trace to %s (%d events, %d dropped)\n", *traceOut, tracer.Len(), tracer.Dropped())
	}
	if *metricsOut != "" {
		mf, err := os.Create(*metricsOut)
		if err != nil {
			fatal(err)
		}
		if err := obs.WriteProm(mf, registry); err != nil {
			fatal(err)
		}
		if err := mf.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote metrics to %s\n", *metricsOut)
	}
	if *summary {
		fmt.Println()
		if err := obs.WriteSummary(os.Stdout, registry); err != nil {
			fatal(err)
		}
		fmt.Println()
	}

	if directory != nil {
		fmt.Printf("directory:  %d epochs published (%d aborted), journal %d bytes, assignment hash %#x\n",
			dirEpochs, pubAborts, len(directory.JournalBytes()), directory.Current().AssignHash())
	}
	if *dirJournal != "" {
		j := directory.JournalBytes()
		if err := os.WriteFile(*dirJournal, j, 0o644); err != nil {
			fatal(err)
		}
		// Prove the journal: recover it and compare against the live
		// directory, epoch and assignment hash both.
		rec, err := dir.Recover(j, dir.Options{})
		if err != nil {
			fatal(fmt.Errorf("journal verification: %w", err))
		}
		if rec.Epoch() != directory.Epoch() || rec.Current().AssignHash() != directory.Current().AssignHash() {
			fatal(fmt.Errorf("journal verification: recovered epoch %d hash %#x, live epoch %d hash %#x",
				rec.Epoch(), rec.Current().AssignHash(), directory.Epoch(), directory.Current().AssignHash()))
		}
		fmt.Printf("wrote directory journal to %s (recovery verified at epoch %d)\n", *dirJournal, rec.Epoch())
	}

	if *out != "" {
		of, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		w := bufio.NewWriter(of)
		for v := int32(0); v < g.NumVertices(); v++ {
			fmt.Fprintf(w, "%d %d\n", v, p.Assign[v])
		}
		if err := w.Flush(); err != nil {
			fatal(err)
		}
		if err := of.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote assignment to %s\n", *out)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "paragon: %v\n", err)
	os.Exit(1)
}
