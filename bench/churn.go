package bench

import (
	"runtime"
	"time"

	"paragon/internal/dir"
	"paragon/internal/dyn"
	"paragon/internal/gen"
	"paragon/internal/graph"
	"paragon/internal/paragon"
	"paragon/internal/partition"
	"paragon/internal/session"
	"paragon/internal/stream"
	"paragon/internal/topology"
)

// churnInput is the streaming workload's built input.
type churnInput struct {
	g0    *graph.Graph
	p0    *partition.Partitioning
	costs [][]float64
}

// sessionConfig mirrors cmd/paragond's defaults (lag 2, cooldown 4,
// skew 1.1 / churn 0.05 / staleness 0.25, 2 shuffles). With trigger off
// no epoch ever launches — the twin run of the quality ratio.
func (r *rec) sessionConfig(w churnWorkload, costs [][]float64, trigger bool) session.Config {
	cfg := session.Config{
		Capacity:        w.n + int32(w.batches*w.load.Arrivals),
		Eps:             0.02,
		Trigger:         dyn.DefaultTrigger(),
		EpochLagBatches: 2,
		CooldownBatches: 4,
		Costs:           costs,
	}
	if !trigger {
		cfg.Trigger = dyn.TriggerPolicy{MaxSkew: 1e18, MaxChurn: 1e18}
	}
	cfg.Refine = paragon.DefaultConfig()
	cfg.Refine.Shuffles = 2
	cfg.Refine.Workers = r.opt.Workers
	cfg.Refine.Seed = r.opt.Seed + 2
	return cfg
}

func setupChurn(r *rec, w churnWorkload) churnInput {
	var in churnInput
	r.setup(func(stage func(metric, span string, f func())) {
		stage("gen.build_s", "gen.build", func() { in.g0 = gen.RMAT(w.n, w.m, 0.57, 0.19, 0.19, r.opt.InputSeed) })
		stage("stream.partition_s", "stream.partition", func() { in.p0 = stream.LDG(in.g0, w.k, stream.DefaultOptions()) })
		stage("topology.costmatrix_s", "topology.costmatrix", func() { in.costs = topology.UniformMatrix(int(w.k)) })
		stage("session.new_s", "session.New", func() {
			_, err := session.New(in.g0, in.p0, r.sessionConfig(w, in.costs, true))
			r.check(err == nil, "session.New: %v", err)
		})
	})
	return in
}

// sessionRun is what one whole schedule (all batches, then Drain)
// measured, in seconds.
type sessionRun struct {
	batch               []float64 // every Ingest latency
	launch, join, stall []float64 // per epoch: launch batch, join batch (or Drain), their sum
	apply, next, ingest float64   // Σ plain batches, Σ Workload.Next, Σ Ingest+Drain
	stats               session.Stats
	dir                 *dir.Directory
}

// driveSession ingests the whole seeded schedule into a fresh session
// from one goroutine, closed loop: the next batch is generated only once
// the previous Ingest returned. That is Session's contract and paragond's
// loop.
func driveSession(r *rec, w churnWorkload, in churnInput, trigger bool) sessionRun {
	var run sessionRun
	s, err := session.New(in.g0, in.p0, r.sessionConfig(w, in.costs, trigger))
	r.check(err == nil, "session.New: %v", err)
	if err != nil {
		return run
	}
	load := dyn.NewWorkload(r.opt.Seed+1, w.load)
	runtime.GC()

	tr := r.tr
	if !trigger {
		tr = nil // the twin run is untimed and untraced
	}
	root := tr.Begin("churn.session")
	pendingLaunch := 0.0
	for i := 0; i < w.batches; i++ {
		var b dyn.Batch
		run.next += timed(tr, "dyn.Workload.Next", func() { b = load.Next(s.Source()) })
		id := tr.Begin("session.Ingest")
		t := time.Now()
		bs, err := s.Ingest(b)
		d := time.Since(t).Seconds()
		r.check(err == nil, "batch %d: %v", i, err)
		run.batch = append(run.batch, d)
		switch {
		case bs.Joined:
			tr.EndAs(id, "session.Ingest.join")
			run.join, run.stall = append(run.join, d), append(run.stall, pendingLaunch+d)
		case bs.Launched:
			tr.EndAs(id, "session.Ingest.launch")
			run.launch, pendingLaunch = append(run.launch, d), d
		default:
			tr.EndAs(id, "session.Ingest.plain")
			run.apply += d
		}
	}
	var joined bool
	d := timed(tr, "session.Drain", func() { joined, err = s.Drain() })
	r.check(err == nil, "Drain: %v", err)
	if joined {
		run.join, run.stall = append(run.join, d), append(run.stall, pendingLaunch+d)
	}
	tr.End(root)
	run.ingest = sum(run.batch) + d
	run.stats = s.Stats()
	run.dir = s.Directory()

	if trigger {
		r.hash("session_assign", s.AssignHash())
		r.hash("directory", run.dir.Current().AssignHash())
		if tr != nil {
			cov := tr.Coverage(root)
			r.check(cov >= 0.95, "churn.session children cover %.3f of it, need 0.95", cov)
			r.note("churn.session span coverage by Next/Ingest/Drain: %.4f", cov)
		}
	}
	return run
}

func runChurn(r *rec, w churnWorkload) {
	root := r.tr.Begin("workload")
	defer func() { r.tr.End(root) }()
	in := setupChurn(r, w)

	var (
		batch, launch, join, stall []float64
		apply, next, share         []float64
		ingest                     float64
		edges                      int64
		first, last                sessionRun
	)
	r.window(1, func(rep int) {
		last = driveSession(r, w, in, true)
		if rep == 0 {
			first = last
		}
		st := last.stats
		r.check(st.ArrivalsRejected == 0, "%d arrivals rejected", st.ArrivalsRejected)
		r.check(st.EpochsAborted == 0, "%d epochs aborted", st.EpochsAborted)
		r.check(st.EpochsLaunched > 0, "no epoch launched: the schedule never tripped the trigger")
		r.check(st.EpochsLaunched == st.EpochsCommitted && st.DirectoryEpoch == st.EpochsCommitted,
			"epochs launched %d, committed %d, directory at epoch %d", st.EpochsLaunched, st.EpochsCommitted, st.DirectoryEpoch)
		r.check(st.EdgesAdded == first.stats.EdgesAdded && st.EpochMoves == first.stats.EpochMoves,
			"session counters differ from the first session of this run")
		batch, launch = append(batch, last.batch...), append(launch, last.launch...)
		join, stall = append(join, last.join...), append(stall, last.stall...)
		apply, next = append(apply, last.apply), append(next, last.next)
		share = append(share, (sum(last.launch)+sum(last.join))/last.ingest)
		ingest += last.ingest
		edges += st.EdgesAdded + st.EdgesRemoved
	})
	st := first.stats
	r.setMean("refine_s", stall, 1, "Σ (launch-batch + join-batch latency) / epochs: the time one refinement blocks the ingest caller")
	r.set("edges_per_s", float64(edges)/ingest, "churned edges (added+removed) / Σ Ingest+Drain time; Workload.Next excluded")
	r.peakRSS()

	// The directory must be recoverable from its own journal at the
	// epoch it serves.
	rec2, err := dir.Recover(last.dir.JournalBytes(), dir.Options{})
	r.check(err == nil && rec2.Current().AssignHash() == last.dir.Current().AssignHash() && rec2.Epoch() == last.dir.Epoch(),
		"directory recovered from its journal differs from the live one (err %v)", err)

	twin := driveSession(r, w, in, false)
	r.check(twin.stats.EpochsLaunched == 0 && twin.stats.EdgesAdded == st.EdgesAdded && twin.stats.Edges == st.Edges,
		"twin run without trigger diverged: %d epochs, %d vs %d live edges", twin.stats.EpochsLaunched, twin.stats.Edges, st.Edges)
	r.set("cost_ratio", st.Live.CommCost/twin.stats.Live.CommCost, "final live Eq. 2 with epochs / without (trigger disabled)")
	r.set("skewness", st.Live.Skewness, "")
	r.hash("live_edge_cut", uint64(st.Live.EdgeCut))

	r.setSamples("session.batch_p50_ms", batch, 1e3, "")
	r.set("session.batch_p99_ms", quantile(batch, 0.99)*1e3, "")
	r.setSamples("session.launch_stall_p50_ms", launch, 1e3, "")
	r.setSamples("session.join_stall_p50_ms", join, 1e3, "")
	r.setSamples("session.apply_s", apply, 1, "per session: Σ plain batches")
	r.setSamples("session.stall_share", share, 1, "per session: Σ launch+join latency / Σ Ingest+Drain")
	r.setSamples("dyn.workload_next_s", next, 1, "per session: Σ Workload.Next, outside every timed metric")
	r.set("session.epochs_n", float64(st.EpochsLaunched), "")
	r.set("session.epoch_moves_n", float64(st.EpochMoves), "")
	r.set("session.epochs_aborted_n", float64(st.EpochsAborted), "")

	if r.tr != nil {
		id := r.tr.Begin("probes")
		probeEpoch(r, w, in)
		probeLookups(r, w, last.dir)
		r.tr.End(id)
		r.runtimeMetrics()
	}
}

// probeEpoch times, one by one, the public calls an epoch makes: freeze
// one epoch's worth of churn (the 5 % that trips the trigger) into a CSR
// snapshot, retarget a live index to it, refine on that index, publish
// the result to a directory, and recover that directory from its journal.
func probeEpoch(r *rec, w churnWorkload, in churnInput) {
	per := w.load.Adds + w.load.Removes
	batches := int(0.05*float64(in.g0.NumEdges()))/per + 1
	ops := dyn.RandomChurn(in.g0, batches*w.load.Adds, batches*w.load.Removes, r.opt.Seed+3)
	ov := graph.NewOverlay(in.g0)
	dyn.ApplyChurn(ov, ops)
	seen := partition.NewBitset(in.g0.NumVertices())
	var dirty []int32
	for _, op := range ops {
		for _, v := range [2]int32{op.U, op.V} {
			if !seen.Get(v) {
				seen.Set(v)
				dirty = append(dirty, v)
			}
		}
	}

	var g1 *graph.Graph
	r.set("graph.materialize_s", timed(r.tr, "graph.Overlay.Materialize", func() { g1 = ov.Materialize() }), "probe: one epoch's churn over the base graph")
	p := in.p0.Clone()
	ix := partition.BuildIndex(in.g0, p)
	var err error
	r.set("partition.retarget_s", timed(r.tr, "partition.Index.Retarget", func() { err = ix.Retarget(g1, dirty) }), "probe: that epoch's dirty set")
	r.check(err == nil && ix.Validate() == nil, "index invalid after Retarget (err %v)", err)

	cfg := r.sessionConfig(w, in.costs, true).Refine
	r.set("paragon.refine_indexed_s", timed(r.tr, "paragon.RefineIndexed", func() {
		_, err = paragon.RefineIndexed(g1, p, in.costs, cfg, ix)
	}), "probe: on that snapshot and index")
	r.check(err == nil && p.Validate(g1) == nil && ix.Validate() == nil, "RefineIndexed left an invalid state (err %v)", err)

	d, err := dir.New(in.p0.Assign, w.k, dir.Options{})
	r.check(err == nil, "dir.New: %v", err)
	if err != nil {
		return
	}
	r.set("dir.publish_assign_s", timed(r.tr, "dir.PublishAssign", func() { _, err = d.PublishAssign(p.Assign) }), "probe: the refined assignment as one epoch")
	r.check(err == nil, "PublishAssign: %v", err)
	journal := d.JournalBytes()
	r.set("dir.journal_bytes_n", float64(len(journal)), "base record + that one epoch")
	var back *dir.Directory
	r.set("dir.recover_s", timed(r.tr, "dir.Recover", func() { back, err = dir.Recover(journal, dir.Options{}) }), "probe")
	r.check(err == nil && back.Current().AssignHash() == d.Current().AssignHash(), "recovered probe directory differs (err %v)", err)
}

// probeLookups times single-reader lookups against the drained session's
// directory, striding the id space so that consecutive lookups land in
// different shards.
func probeLookups(r *rec, w churnWorkload, d *dir.Directory) {
	n := d.Current().NumVertices()
	var sink int32
	wall := timed(r.tr, "dir.Lookup", func() {
		v := int32(0)
		for i := 0; i < w.lookups; i++ {
			rank, _ := d.Lookup(v)
			sink += rank
			v = int32((int64(v) + 1000003) % int64(n))
		}
	})
	r.check(sink >= 0, "lookup ranks overflowed")
	r.set("dir.lookup_ns", wall*1e9/float64(w.lookups), "one reader, after Drain")
}
