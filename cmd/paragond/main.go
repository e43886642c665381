// Command paragond is the streaming-ingest repartitioning daemon: it
// opens a Session over a generated base graph, feeds it a seeded
// churn-batch schedule (edge adds/removes plus vertex arrivals), and
// lets the session launch incremental refinement epochs whenever its
// trigger policy fires — ingest continues on the foreground goroutine
// while each epoch refines a frozen snapshot in the background and
// publishes the committed result atomically through the partition
// directory.
//
// Usage:
//
//	paragond -n0 20000 -m0 100000 -k 16 -batches 200 \
//	         -adds 400 -removes 150 -arrivals 10 -workers 4 \
//	         -fault-rate 0.3 -replay-out run.txt
//
// Everything the daemon computes is a pure function of the seeds and
// the schedule: the -replay-out file (final assignment hash, directory
// epoch, live score, full counter block) is byte-identical at every
// -workers value and every -fault-rate replay. Wall-clock numbers
// (edges/sec while refining) go to stdout only, never into the replay
// file.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"paragon"
)

func main() {
	n0 := flag.Int("n0", 20000, "base graph vertices")
	m0 := flag.Int64("m0", 100000, "base graph edges (RMAT)")
	k := flag.Int("k", 16, "number of partitions")
	capacity := flag.Int("capacity", 0, "vertex-id ceiling (0 = n0 + batches*arrivals)")
	batches := flag.Int("batches", 200, "churn batches to ingest")
	adds := flag.Int("adds", 400, "edge additions per batch")
	removes := flag.Int("removes", 150, "edge removals per batch")
	arrivals := flag.Int("arrivals", 10, "vertex arrivals per batch")
	arrivalDeg := flag.Int("arrival-degree", 3, "initial edges per arriving vertex")
	placement := flag.String("placement", "ldg", "arrival placement rule: dg, ldg, or fennel")
	gseed := flag.Int64("gseed", 42, "base graph seed")
	wseed := flag.Int64("wseed", 7, "workload schedule seed")
	seed := flag.Int64("seed", 11, "refinement seed (folded with the epoch index)")
	workers := flag.Int("workers", 0, "refinement workers (0 = GOMAXPROCS; replay is identical for any value)")
	shuffles := flag.Int("shuffles", 2, "shuffle rounds per epoch")
	drp := flag.Int("drp", 8, "degree of refinement parallelism")
	alpha := flag.Float64("alpha", 10, "communication/migration weight α")
	eps := flag.Float64("eps", 0.02, "allowed load imbalance")
	epochLag := flag.Int("epoch-lag", 2, "batches an epoch refines in the background before its join")
	cooldown := flag.Int("cooldown", 4, "minimum batches between an epoch join and the next launch")
	maxSkew := flag.Float64("max-skew", 1.1, "trigger: Eq. 4 skewness bound")
	maxChurn := flag.Float64("max-churn", 0.05, "trigger: churned-edge fraction bound")
	maxStale := flag.Float64("max-staleness", 0.25, "trigger: Eq. 2 growth bound over the last committed epoch (0 disables)")
	faultRate := flag.Float64("fault-rate", 0, "per-fault-point probability for epoch refinement and directory publishes")
	faultSeed := flag.Int64("fault-seed", 1, "fault injector seed")
	replayOut := flag.String("replay-out", "", "write the deterministic replay summary here (byte-identical at every -workers)")
	traceOut := flag.String("trace", "", "write the session event stream here (JSONL, deterministic)")
	metricsOut := flag.String("metrics", "", "write session+epoch metrics here (Prometheus text format, deterministic)")
	flag.Parse()

	rule, err := paragon.ParsePlaceRule(*placement)
	if err != nil {
		fatal(err)
	}
	if *capacity == 0 {
		*capacity = *n0 + *batches**arrivals
	}

	g0 := paragon.RMAT(int32(*n0), *m0, 0.57, 0.19, 0.19, *gseed)
	p0 := paragon.LDG(g0, int32(*k))

	var tracer *paragon.Tracer
	if *traceOut != "" {
		tracer = paragon.NewTracer(0)
	}
	var registry *paragon.MetricsRegistry
	if *metricsOut != "" {
		registry = paragon.NewMetricsRegistry()
	}

	cfg := paragon.SessionConfig{
		Capacity:  int32(*capacity),
		Eps:       *eps,
		Placement: rule,
		Trigger: paragon.TriggerPolicy{
			MaxSkew: *maxSkew, MaxChurn: *maxChurn, MaxStaleness: *maxStale,
		},
		EpochLagBatches: *epochLag,
		CooldownBatches: *cooldown,
		Costs:           paragon.UniformMatrix(*k),
		FaultRate:       *faultRate,
		FaultSeed:       *faultSeed,
		Trace:           tracer,
		Metrics:         registry,
	}
	cfg.Refine = paragon.DefaultConfig()
	cfg.Refine.DRP = *drp
	cfg.Refine.Workers = *workers
	cfg.Refine.Shuffles = *shuffles
	cfg.Refine.Alpha = *alpha
	cfg.Refine.MaxImbalance = *eps
	cfg.Refine.Seed = *seed

	s, err := paragon.NewSession(g0, p0, cfg)
	if err != nil {
		fatal(err)
	}
	w := paragon.NewWorkload(*wseed, paragon.WorkloadConfig{
		Adds: *adds, Removes: *removes, Arrivals: *arrivals, ArrivalDegree: *arrivalDeg,
	})

	// The ingest loop. Wall time is measured around it — that is the
	// window refinement epochs run concurrently inside — but feeds only
	// the stdout line, never the replay summary.
	start := time.Now()
	for i := 0; i < *batches; i++ {
		if _, err := s.Ingest(w.Next(s.Source())); err != nil {
			fatal(fmt.Errorf("batch %d: %w", i, err))
		}
	}
	if _, err := s.Drain(); err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)

	st := s.Stats()
	churnEdges := st.EdgesAdded + st.EdgesRemoved
	edgesPerSec := float64(churnEdges) / elapsed.Seconds()

	fmt.Printf("paragond: %d batches in %s (%.0f churned edges/s while refining)\n",
		st.Batches, elapsed.Round(time.Millisecond), edgesPerSec)
	fmt.Printf("epochs:   %d launched, %d committed, %d aborted, %d vertices moved\n",
		st.EpochsLaunched, st.EpochsCommitted, st.EpochsAborted, st.EpochMoves)

	if *replayOut != "" {
		rf, err := os.Create(*replayOut)
		if err != nil {
			fatal(err)
		}
		writeReplay(rf, s, st)
		if err := rf.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote replay summary to %s\n", *replayOut)
	} else {
		writeReplay(os.Stdout, s, st)
	}

	if tracer != nil {
		tf, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := paragon.WriteTrace(tf, tracer); err != nil {
			fatal(err)
		}
		if err := tf.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote trace to %s (%d events)\n", *traceOut, tracer.Len())
	}
	if registry != nil {
		mf, err := os.Create(*metricsOut)
		if err != nil {
			fatal(err)
		}
		if err := paragon.WriteMetrics(mf, registry); err != nil {
			fatal(err)
		}
		if err := mf.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote metrics to %s\n", *metricsOut)
	}
}

// writeReplay renders the deterministic half of the run: every line is a
// pure function of (seeds, schedule, flags minus -workers), so two runs
// that should replay each other can be compared with cmp.
func writeReplay(w io.Writer, s *paragon.Session, st paragon.SessionStats) {
	fmt.Fprintf(w, "batches       %d\n", st.Batches)
	fmt.Fprintf(w, "ops           %d applied (%d added, %d removed)\n", st.OpsApplied, st.EdgesAdded, st.EdgesRemoved)
	fmt.Fprintf(w, "arrivals      %d placed, %d rejected\n", st.Arrivals, st.ArrivalsRejected)
	fmt.Fprintf(w, "epochs        %d launched, %d committed, %d aborted\n", st.EpochsLaunched, st.EpochsCommitted, st.EpochsAborted)
	fmt.Fprintf(w, "moves         %d\n", st.EpochMoves)
	fmt.Fprintf(w, "active        %d vertices, %d edges\n", st.Active, st.Edges)
	fmt.Fprintf(w, "vticks        %d\n", st.VirtualTicks)
	fmt.Fprintf(w, "live          cut %d comm %.0f skew %.4f\n", st.Live.EdgeCut, st.Live.CommCost, st.Live.Skewness)
	fmt.Fprintf(w, "assign-hash   %#x\n", s.AssignHash())
	fmt.Fprintf(w, "dir           epoch %d hash %#x\n", st.DirectoryEpoch, s.Directory().Current().AssignHash())
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "paragond: %v\n", err)
	os.Exit(1)
}
