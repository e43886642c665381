package session

import (
	"bytes"
	"math"
	"testing"

	"paragon/internal/dyn"
	"paragon/internal/gen"
	"paragon/internal/graph"
	"paragon/internal/obs"
	"paragon/internal/paragon"
	"paragon/internal/partition"
	"paragon/internal/stream"
	"paragon/internal/topology"
)

const (
	tN0   = 600
	tM0   = 3000
	tK    = 8
	tCap  = 800
	tSeed = 7
)

func testBase(t *testing.T) (*graph.Graph, *partition.Partitioning) {
	t.Helper()
	g0 := gen.RMAT(tN0, tM0, 0.57, 0.19, 0.19, tSeed)
	p0 := stream.LDG(g0, tK, stream.DefaultOptions())
	return g0, p0
}

func testConfig(workers int, faultRate float64, tr *obs.Tracer, mr *obs.Registry) Config {
	cfg := Config{
		Capacity:  tCap,
		Costs:     topology.UniformMatrix(tK),
		FaultRate: faultRate,
		FaultSeed: 33,
		Trace:     tr,
		Metrics:   mr,
	}
	cfg.Refine.Workers = workers
	cfg.Refine.Seed = 11
	return cfg
}

type runResult struct {
	hash      uint64
	dirHash   uint64
	dirEpoch  int64
	stats     Stats
	trace     []byte
	metrics   []byte
	committed int
	launched  int
}

// runSchedule replays the same seeded workload into a fresh session and
// returns everything the replay contract pins.
func runSchedule(t *testing.T, workers int, faultRate float64, batches int) runResult {
	t.Helper()
	return runScheduleRefine(t, paragon.Config{Workers: workers, Seed: 11}, faultRate, batches)
}

// runScheduleRefine is runSchedule with the per-epoch refinement config
// spelled out by the caller.
func runScheduleRefine(t *testing.T, refine paragon.Config, faultRate float64, batches int) runResult {
	t.Helper()
	g0, p0 := testBase(t)
	tr := obs.NewTracer(1 << 14)
	mr := obs.NewRegistry()
	cfg := testConfig(refine.Workers, faultRate, tr, mr)
	cfg.Refine = refine
	s, err := New(g0, p0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := dyn.NewWorkload(101, dyn.WorkloadConfig{Adds: 40, Removes: 15, Arrivals: 5})
	var res runResult
	for i := 0; i < batches; i++ {
		st, err := s.Ingest(w.Next(s.Source()))
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if st.Launched {
			res.launched++
		}
		if st.Committed {
			res.committed++
		}
	}
	if committed, err := s.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	} else if committed {
		res.committed++
	}
	res.hash = s.AssignHash()
	res.dirHash = s.Directory().Current().AssignHash()
	res.dirEpoch = s.Directory().Epoch()
	res.stats = s.Stats()
	var tb, mb bytes.Buffer
	if err := obs.WriteJSONL(&tb, tr); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteProm(&mb, mr); err != nil {
		t.Fatal(err)
	}
	res.trace = tb.Bytes()
	res.metrics = mb.Bytes()
	return res
}

// The replay contract: a (seed, schedule) pair produces bit-identical
// live assignment, directory state, trace bytes, and metrics at every
// Workers value — fault-free and at fault rate 0.35 (≥ the 0.3 the
// acceptance criteria require).
func TestSessionReplayBitIdentity(t *testing.T) {
	for _, rate := range []float64{0, 0.35} {
		base := runSchedule(t, 1, rate, 40)
		if base.launched == 0 {
			t.Fatalf("rate %v: schedule never launched an epoch", rate)
		}
		if rate == 0 && base.committed == 0 {
			t.Fatal("fault-free schedule never committed an epoch")
		}
		for _, workers := range []int{2, 8} {
			got := runSchedule(t, workers, rate, 40)
			if got.hash != base.hash {
				t.Errorf("rate %v workers %d: assign hash %#x != %#x", rate, workers, got.hash, base.hash)
			}
			if got.dirHash != base.dirHash || got.dirEpoch != base.dirEpoch {
				t.Errorf("rate %v workers %d: directory diverged (epoch %d vs %d)", rate, workers, got.dirEpoch, base.dirEpoch)
			}
			if got.stats != base.stats {
				t.Errorf("rate %v workers %d: stats diverged\n got %+v\nwant %+v", rate, workers, got.stats, base.stats)
			}
			if !bytes.Equal(got.trace, base.trace) {
				t.Errorf("rate %v workers %d: trace bytes diverged", rate, workers)
			}
			if !bytes.Equal(got.metrics, base.metrics) {
				t.Errorf("rate %v workers %d: metrics bytes diverged", rate, workers)
			}
		}
	}
}

// Under a certain-fault fabric every publish dies: epochs must abort,
// the base directory epoch must stay live and untorn, and the session
// must keep ingesting — degradation, not corruption.
func TestSessionEpochAbortLeavesPreviousLive(t *testing.T) {
	g0, p0 := testBase(t)
	s, err := New(g0, p0, testConfig(2, 1.0, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	baseHash := s.Directory().Current().AssignHash()
	w := dyn.NewWorkload(55, dyn.WorkloadConfig{Adds: 60, Removes: 20, Arrivals: 4})
	for i := 0; i < 30; i++ {
		if _, err := s.Ingest(w.Next(s.Source())); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	if _, err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.EpochsLaunched == 0 {
		t.Fatal("no epochs launched under heavy churn")
	}
	if st.EpochsCommitted != 0 {
		t.Fatalf("%d epochs committed under a certain-fault publish fabric", st.EpochsCommitted)
	}
	if st.EpochsAborted != st.EpochsLaunched {
		t.Fatalf("launched %d but aborted %d", st.EpochsLaunched, st.EpochsAborted)
	}
	if got := s.Directory().Epoch(); got != 0 {
		t.Fatalf("directory advanced to epoch %d despite aborted publishes", got)
	}
	if got := s.Directory().Current().AssignHash(); got != baseHash {
		t.Fatal("base directory epoch mutated by aborted publishes")
	}
	// The rolled-back index must still satisfy every invariant and the
	// epoch-side assignment must agree with the live side for every
	// vertex that is not awaiting its first post-arrival sync.
	if err := s.ix.Validate(); err != nil {
		t.Fatalf("index invalid after aborts: %v", err)
	}
	pending := make(map[int32]bool, len(s.placed))
	for _, v := range s.placed {
		pending[v] = true
	}
	for v := int32(0); v < s.cap; v++ {
		if !pending[v] && s.pidx.Assign[v] != s.live[v] {
			t.Fatalf("vertex %d: epoch-side %d != live %d after rollback", v, s.pidx.Assign[v], s.live[v])
		}
	}
}

// After a committed drain the directory serves exactly the live
// assignment — the atomic-publish half of the contract.
func TestSessionDirectoryFollowsCommit(t *testing.T) {
	g0, p0 := testBase(t)
	s, err := New(g0, p0, testConfig(1, 0, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	w := dyn.NewWorkload(77, dyn.WorkloadConfig{Adds: 80, Removes: 30, Arrivals: 3})
	launched := false
	for i := 0; i < 60 && !launched; i++ {
		st, err := s.Ingest(w.Next(s.Source()))
		if err != nil {
			t.Fatal(err)
		}
		launched = st.Launched
	}
	if !launched {
		t.Fatal("schedule never launched an epoch")
	}
	committed, err := s.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if !committed {
		t.Fatal("fault-free epoch did not commit")
	}
	served := s.Directory().Current().AppendAssign(nil)
	for v := int32(0); v < s.cap; v++ {
		if served[v] != s.live[v] {
			t.Fatalf("vertex %d: directory serves %d, live is %d", v, served[v], s.live[v])
		}
	}
}

// The incrementally maintained score must match a from-scratch Eq. 2–4
// computation over the materialized live graph, and the reused index
// must stay bit-consistent across commit/abort cycles.
func TestSessionLiveStateConsistency(t *testing.T) {
	g0, p0 := testBase(t)
	s, err := New(g0, p0, testConfig(2, 0.3, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	w := dyn.NewWorkload(13, dyn.WorkloadConfig{Adds: 50, Removes: 20, Arrivals: 6})
	for i := 0; i < 30; i++ {
		if _, err := s.Ingest(w.Next(s.Source())); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.EpochsLaunched == 0 {
		t.Fatal("schedule never launched an epoch")
	}

	if err := s.ix.Validate(); err != nil {
		t.Fatalf("live index invalid: %v", err)
	}

	live := &partition.Partitioning{K: tK, Assign: s.live}
	ref := partition.ComputeScore(s.materialize(), live, s.live, s.cfg.Costs, s.alpha)
	got := s.LiveScore()
	if got.EdgeCut != ref.EdgeCut {
		t.Fatalf("incremental cut %d != recomputed %d", got.EdgeCut, ref.EdgeCut)
	}
	if math.Abs(got.CommCost-ref.CommCost) > 1e-6*(1+math.Abs(ref.CommCost)) {
		t.Fatalf("incremental comm %v != recomputed %v", got.CommCost, ref.CommCost)
	}
	if math.Abs(got.Skewness-ref.Skewness) > 1e-12 {
		t.Fatalf("incremental skew %v != recomputed %v", got.Skewness, ref.Skewness)
	}

	// Loads must agree with a fresh per-partition weight sum.
	var loads [tK]int64
	for v := int32(0); v < s.cap; v++ {
		loads[s.live[v]] += int64(s.weight[v])
	}
	for q := 0; q < tK; q++ {
		if loads[q] != s.loads[q] {
			t.Fatalf("partition %d: maintained load %d != recomputed %d", q, s.loads[q], loads[q])
		}
	}
}

func TestSessionArrivalCapacity(t *testing.T) {
	g0, p0 := testBase(t)
	cfg := testConfig(1, 0, nil, nil)
	cfg.Capacity = tN0 + 3
	s, err := New(g0, p0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := dyn.NewWorkload(5, dyn.WorkloadConfig{Arrivals: 2})
	for i := 0; i < 4; i++ {
		if _, err := s.Ingest(w.Next(s.Source())); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Active != tN0+3 {
		t.Fatalf("active = %d, want capacity %d", st.Active, tN0+3)
	}
	if st.Arrivals != 3 || st.ArrivalsRejected != 5 {
		t.Fatalf("arrivals %d rejected %d, want 3/5", st.Arrivals, st.ArrivalsRejected)
	}
}

func TestSessionConfigValidation(t *testing.T) {
	g0, p0 := testBase(t)
	if _, err := New(g0, p0, Config{}); err == nil {
		t.Fatal("missing cost matrix accepted")
	}
	bad := testConfig(1, 0, nil, nil)
	bad.Capacity = tN0 - 1
	if _, err := New(g0, p0, bad); err == nil {
		t.Fatal("capacity below base size accepted")
	}
	p1 := partition.New(1, g0.NumVertices())
	cfg := testConfig(1, 0, nil, nil)
	if _, err := New(g0, p1, cfg); err == nil {
		t.Fatal("k = 1 accepted")
	}
}

// Regression: New used to replace Config.Refine wholesale with the
// defaults whenever Alpha and DRP were both zero, silently dropping
// every other field the caller set. A sparse config must refine exactly
// like the same config with its defaults spelled out, and not like the
// all-defaults one.
func TestSparseRefineConfigReachesEpochs(t *testing.T) {
	sparse := runScheduleRefine(t, paragon.Config{Workers: 1, Seed: 11, KHop: 1, MaxImbalance: 0.05}, 0, 40)
	if sparse.committed == 0 {
		t.Fatal("schedule never committed an epoch")
	}
	full := paragon.DefaultConfig()
	full.Shuffles, full.Workers, full.Seed = 2, 1, 11
	full.KHop, full.MaxImbalance = 1, 0.05
	if want := runScheduleRefine(t, full, 0, 40); sparse.hash != want.hash || !bytes.Equal(sparse.metrics, want.metrics) {
		t.Errorf("sparse Refine config diverged from its spelled-out form: hash %#x vs %#x", sparse.hash, want.hash)
	}
	if defaults := runSchedule(t, 1, 0, 40); bytes.Equal(sparse.metrics, defaults.metrics) {
		t.Error("KHop/MaxImbalance never reached the epoch refinement: metrics equal the all-defaults run")
	}
}
