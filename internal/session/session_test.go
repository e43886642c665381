package session

import (
	"bytes"
	"fmt"
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
	return runScheduleRefine(t, paragon.Config{Workers: workers, Seed: 11}, topology.UniformMatrix(tK), faultRate, batches)
}

// runScheduleRefine is runSchedule with the per-epoch refinement config
// and the cost matrix spelled out by the caller.
func runScheduleRefine(t *testing.T, refine paragon.Config, costs [][]float64, faultRate float64, batches int) runResult {
	t.Helper()
	g0, p0 := testBase(t)
	tr := obs.NewTracer(1 << 14)
	mr := obs.NewRegistry()
	cfg := testConfig(refine.Workers, faultRate, tr, mr)
	cfg.Refine = refine
	cfg.Costs = costs
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

// asymmetricCosts is a non-uniform integer cost matrix with c[i][j] ≠
// c[j][i] for most pairs, so a score that read an edge's cost in the
// other order than ComputeScore's c[p(min)][p(max)] would drift from it.
func asymmetricCosts(k int) [][]float64 {
	c := make([][]float64, k)
	for i := range c {
		c[i] = make([]float64, k)
		for j := range c[i] {
			if i != j {
				c[i][j] = float64(1 + (3*i+j)%5)
			}
		}
	}
	return c
}

// The 2^j relation (ROADMAP item 4) through a session: scaling the cost
// matrix by 2^j changes no integer the session or its epochs decide by, so
// the same seeded schedule must end in the same live assignment, directory
// and counters, with the live communication cost exactly ×2^j. Checked
// under the uniform and an asymmetric matrix, with and without faults.
func TestSessionInvariantUnderCostScaling(t *testing.T) {
	refine := paragon.Config{Workers: 2, Seed: 11}
	for _, mc := range []struct {
		name string
		c    [][]float64
	}{{"uniform", topology.UniformMatrix(tK)}, {"asymmetric", asymmetricCosts(tK)}} {
		for _, rate := range []float64{0, 0.35} {
			base := runScheduleRefine(t, refine, mc.c, rate, 40)
			if base.committed == 0 {
				t.Fatalf("%s rate %v: no epoch committed; the relation was not exercised", mc.name, rate)
			}
			for _, j := range []int{-3, 5} {
				c := make([][]float64, tK)
				for i, row := range mc.c {
					c[i] = make([]float64, tK)
					for q, x := range row {
						c[i][q] = math.Ldexp(x, j)
					}
				}
				got := runScheduleRefine(t, refine, c, rate, 40)
				if got.hash != base.hash || got.dirHash != base.dirHash || got.committed != base.committed {
					t.Fatalf("%s rate %v j %d: hash %#x dir %#x committed %d, want %#x %#x %d", mc.name, rate, j,
						got.hash, got.dirHash, got.committed, base.hash, base.dirHash, base.committed)
				}
				if want := math.Ldexp(base.stats.Live.CommCost, j); got.stats.Live.CommCost != want {
					t.Fatalf("%s rate %v j %d: live comm cost %v, want %v", mc.name, rate, j, got.stats.Live.CommCost, want)
				}
				got.stats.Live.CommCost = base.stats.Live.CommCost
				if got.stats != base.stats {
					t.Fatalf("%s rate %v j %d: stats %+v, want %+v", mc.name, rate, j, got.stats, base.stats)
				}
			}
		}
	}
}

// checkLiveScore holds the incrementally maintained score to a
// from-scratch Eq. 2–4 computation over the materialized live graph.
func checkLiveScore(t *testing.T, s *Session, when string) {
	t.Helper()
	live := &partition.Partitioning{K: s.k, Assign: s.live}
	ref := partition.ComputeScore(s.g.Materialize(), live, s.live, s.cfg.Costs, s.cfg.Refine.Alpha)
	got := s.LiveScore()
	if got.EdgeCut != ref.EdgeCut || got.Comm != ref.Comm || got.CommCost != ref.CommCost {
		t.Fatalf("%s: incremental cut %d comm %d (%v) != recomputed %d, %d (%v)", when, got.EdgeCut, got.Comm, got.CommCost, ref.EdgeCut, ref.Comm, ref.CommCost)
	}
	if math.Abs(got.Skewness-ref.Skewness) > 1e-12 {
		t.Fatalf("%s: incremental skew %v != recomputed %v", when, got.Skewness, ref.Skewness)
	}
}

// The incrementally maintained score must equal a from-scratch Eq. 2–4
// computation over the materialized live graph after every batch and at
// every join: a committed epoch folds its moves in edge by edge, an
// aborted one must leave the score untouched. Under a uniform and an
// asymmetric matrix, fault-free and at fault rate 0.3; the reused index
// must stay bit-consistent across the commit/abort cycles.
func TestSessionLiveStateConsistency(t *testing.T) {
	for _, m := range []struct {
		name  string
		costs [][]float64
	}{{"uniform", topology.UniformMatrix(tK)}, {"asymmetric", asymmetricCosts(tK)}} {
		for _, rate := range []float64{0, 0.3} {
			t.Run(fmt.Sprintf("%s/faults=%v", m.name, rate), func(t *testing.T) {
				g0, p0 := testBase(t)
				cfg := testConfig(2, rate, nil, nil)
				cfg.Costs, cfg.FaultSeed = m.costs, 4 // a seed whose schedule aborts some epochs
				s, err := New(g0, p0, cfg)
				if err != nil {
					t.Fatal(err)
				}
				// join merges the in-flight epoch apart from any batch's ops,
				// so what the join alone did to the score is checked.
				commits, aborts := 0, 0
				join := func(when string) {
					t.Helper()
					before := s.LiveScore()
					committed, err := s.Drain()
					if err != nil {
						t.Fatal(err)
					}
					if committed {
						commits++
					} else if aborts++; s.LiveScore() != before {
						t.Fatalf("%s: aborted epoch changed the live score %+v -> %+v", when, before, s.LiveScore())
					}
					checkLiveScore(t, s, when)
				}
				w := dyn.NewWorkload(13, dyn.WorkloadConfig{Adds: 50, Removes: 20, Arrivals: 6})
				for i := 0; i < 40; i++ {
					if s.run != nil && s.st.Batches >= s.run.joinBatch {
						join(fmt.Sprintf("join before batch %d", i))
					}
					if _, err := s.Ingest(w.Next(s.Source())); err != nil {
						t.Fatal(err)
					}
					checkLiveScore(t, s, fmt.Sprintf("batch %d", i))
				}
				if s.run != nil {
					join("drain")
				}
				if commits == 0 || (rate > 0 && aborts == 0) {
					t.Fatalf("%d epochs committed, %d aborted: the schedule does not reach both outcomes", commits, aborts)
				}

				if err := s.ix.Validate(); err != nil {
					t.Fatalf("live index invalid: %v", err)
				}
				// Loads must agree with a fresh per-partition weight sum.
				var loads [tK]int64
				for v := int32(0); v < s.cap; v++ {
					loads[s.live[v]] += int64(s.g.VertexWeight(v))
				}
				for q := 0; q < tK; q++ {
					if loads[q] != s.loads[q] {
						t.Fatalf("partition %d: maintained load %d != recomputed %d", q, s.loads[q], loads[q])
					}
				}
			})
		}
	}
}

// A session whose every fault point fires, fed nothing but empty batches,
// can never commit: every joined epoch aborts and the directory stays at
// epoch 0. The trigger, which the aborts never clear, must back off — a
// launch, its join EpochLagBatches later, then CooldownBatches of rest —
// instead of relaunching every batch, and the live score must stay the
// from-scratch one throughout.
func TestSessionCertainFaultsBackOffOnEmptyBatches(t *testing.T) {
	g0, p0 := testBase(t)
	cfg := testConfig(2, 1.0, nil, nil)
	cfg.Trigger = dyn.TriggerPolicy{MaxSkew: 0.5} // skewness is >= 1: always fires
	s, err := New(g0, p0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gap := int64(s.cfg.EpochLagBatches + s.cfg.CooldownBatches)
	lastLaunch := int64(-1)
	launches, joins := 0, 0
	for i := 0; i < 40; i++ {
		st, err := s.Ingest(dyn.Batch{})
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if st.Joined {
			joins++
			if st.Committed {
				t.Fatalf("batch %d: an epoch committed under a certain-fault fabric", i)
			}
		}
		if got := s.Directory().Epoch(); got != 0 {
			t.Fatalf("batch %d: directory advanced to epoch %d", i, got)
		}
		if st.Launched {
			if lastLaunch >= 0 && st.Seq-lastLaunch < gap {
				t.Fatalf("batch %d: relaunched %d batches after the last launch, want >= %d", i, st.Seq-lastLaunch, gap)
			}
			lastLaunch = st.Seq
			launches++
		}
		checkLiveScore(t, s, fmt.Sprintf("batch %d", i))
	}
	if launches < 3 || joins < 2 {
		t.Fatalf("%d launches, %d joins in 40 batches: the back-off is not exercised", launches, joins)
	}
	if st := s.Stats(); st.EpochsAborted != int64(joins) || st.EpochsCommitted != 0 {
		t.Fatalf("%d joins, but %d aborted and %d committed", joins, st.EpochsAborted, st.EpochsCommitted)
	}
}

// A session over an empty base graph has no weight anywhere; its live
// skewness is Eq. 4's value there, 1, as ComputeScore says, and stays the
// from-scratch one once arrivals land.
func TestSessionEmptyBaseLiveScore(t *testing.T) {
	g0 := graph.NewBuilder(0).Build()
	p0 := &partition.Partitioning{K: 2, Assign: []int32{}}
	s, err := New(g0, p0, Config{Capacity: 4, Costs: topology.UniformMatrix(2)})
	if err != nil {
		t.Fatal(err)
	}
	checkLiveScore(t, s, "empty")
	b := dyn.Batch{Arrivals: []dyn.Arrival{{}, {Neighbors: []int32{0}, Weights: []int32{1}}}}
	if _, err := s.Ingest(b); err != nil {
		t.Fatal(err)
	}
	checkLiveScore(t, s, "after arrivals")
	if _, err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	checkLiveScore(t, s, "drained")
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
	sparse := runScheduleRefine(t, paragon.Config{Workers: 1, Seed: 11, KHop: 1, MaxImbalance: 0.05}, topology.UniformMatrix(tK), 0, 40)
	if sparse.committed == 0 {
		t.Fatal("schedule never committed an epoch")
	}
	full := paragon.DefaultConfig()
	full.Shuffles, full.Workers, full.Seed = 2, 1, 11
	full.KHop, full.MaxImbalance = 1, 0.05
	if want := runScheduleRefine(t, full, topology.UniformMatrix(tK), 0, 40); sparse.hash != want.hash || !bytes.Equal(sparse.metrics, want.metrics) {
		t.Errorf("sparse Refine config diverged from its spelled-out form: hash %#x vs %#x", sparse.hash, want.hash)
	}
	if defaults := runSchedule(t, 1, 0, 40); bytes.Equal(sparse.metrics, defaults.metrics) {
		t.Error("KHop/MaxImbalance never reached the epoch refinement: metrics equal the all-defaults run")
	}
}
