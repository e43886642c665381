package paragon

import (
	"testing"

	"paragon/internal/faultsim"
	"paragon/internal/gen"
	"paragon/internal/partition"
	"paragon/internal/stream"
	"paragon/internal/topology"
)

// TestFaultMatrix is the acceptance sweep for degraded-mode refinement:
// for every seeded fault schedule in the matrix, Refine must terminate,
// the result must be a valid partitioning whose edge-cut does not exceed
// the unrefined input, and rerunning the identical (Seed, fault
// schedule) must be bit-identical. Faults cost quality, never validity.
func TestFaultMatrix(t *testing.T) {
	g := gen.RMAT(3000, 18000, 0.57, 0.19, 0.19, 21)
	g.UseDegreeWeights()
	p0 := stream.DG(g, 24, stream.DefaultOptions())
	cutBefore := partition.EdgeCut(g, p0)

	rates := []float64{0.02, 0.1, 0.3, 0.6}
	seeds := []int64{1, 2, 3}
	var totalFaultActivity int64
	for _, rate := range rates {
		for _, fseed := range seeds {
			cfg := Config{DRP: 6, Shuffles: 4, Seed: 9, FaultRate: rate, FaultSeed: fseed}
			run := func() (*partition.Partitioning, Stats) {
				p := p0.Clone()
				st, err := RefineUniform(g, p, cfg)
				if err != nil {
					t.Fatalf("rate %v seed %d: Refine failed: %v", rate, fseed, err)
				}
				return p, st
			}
			p1, st1 := run()
			if err := p1.Validate(g); err != nil {
				t.Fatalf("rate %v seed %d: invalid partitioning: %v", rate, fseed, err)
			}
			if cut := partition.EdgeCut(g, p1); cut > cutBefore {
				t.Fatalf("rate %v seed %d: edge-cut %d exceeds unrefined %d", rate, fseed, cut, cutBefore)
			}
			// Bit-identical rerun under the identical fault schedule.
			p2, st2 := run()
			if assignHash(p1) != assignHash(p2) {
				t.Fatalf("rate %v seed %d: reruns diverged", rate, fseed)
			}
			if st1.Faults != st2.Faults {
				t.Fatalf("rate %v seed %d: fault accounting diverged: %+v vs %+v", rate, fseed, st1.Faults, st2.Faults)
			}
			if st1.Faults.DegradedGroups != st1.Faults.CrashedGroups+st1.Faults.StragglerDrops {
				t.Fatalf("degraded-group accounting inconsistent: %+v", st1.Faults)
			}
			totalFaultActivity += int64(st1.Faults.DegradedGroups + st1.Faults.ExchangeRetries + st1.Faults.ExchangeAborts)
		}
	}
	if totalFaultActivity == 0 {
		t.Fatal("matrix swept rates up to 0.6 and no fault ever fired — injector not wired in")
	}
}

// A realized stochastic schedule replayed as a script must reproduce the
// run bit-identically — the "seeded and replayable" half of the fault
// contract.
func TestFaultScheduleReplaysBitIdentical(t *testing.T) {
	g := gen.RMAT(2000, 12000, 0.57, 0.19, 0.19, 4)
	g.UseDegreeWeights()
	p0 := stream.DG(g, 16, stream.DefaultOptions())

	live := faultsim.NewInjector(faultsim.Config{Seed: 33, Rate: 0.25})
	pLive := p0.Clone()
	stLive, err := RefineUniform(g, pLive, Config{DRP: 4, Shuffles: 3, Seed: 2, Fabric: live})
	if err != nil {
		t.Fatal(err)
	}
	sched := live.Realized()
	if stLive.Faults.DegradedGroups+stLive.Faults.ExchangeRetries == 0 {
		t.Skip("schedule fired nothing at this seed; replay is vacuous")
	}

	replay := faultsim.NewInjector(faultsim.Config{Script: sched})
	pReplay := p0.Clone()
	stReplay, err := RefineUniform(g, pReplay, Config{DRP: 4, Shuffles: 3, Seed: 2, Fabric: replay})
	if err != nil {
		t.Fatal(err)
	}
	if assignHash(pLive) != assignHash(pReplay) {
		t.Fatal("replayed schedule produced a different decomposition")
	}
	if stLive.Faults != stReplay.Faults {
		t.Fatalf("replayed fault accounting diverged: %+v vs %+v", stLive.Faults, stReplay.Faults)
	}
}

// With the fault layer installed but firing nothing (rate 0), the result
// must be bit-identical to a run with no fault layer at all — the
// instrumented fault points are pure observers.
func TestZeroFaultFabricIsNoop(t *testing.T) {
	g := gen.RMAT(2500, 15000, 0.57, 0.19, 0.19, 9)
	g.UseDegreeWeights()
	cl := topology.PittCluster(2)
	k := 32
	c, err := cl.PartitionCostMatrix(k, 0)
	if err != nil {
		t.Fatal(err)
	}
	nodeOf, err := cl.NodeOf(k)
	if err != nil {
		t.Fatal(err)
	}
	p0 := stream.DG(g, int32(k), stream.DefaultOptions())

	bare := p0.Clone()
	stBare, err := Refine(g, bare, c, Config{DRP: 4, Shuffles: 3, Seed: 77, KHop: 1, NodeOf: nodeOf})
	if err != nil {
		t.Fatal(err)
	}
	instrumented := p0.Clone()
	fab := faultsim.NewInjector(faultsim.Config{Seed: 5}) // rate 0: never fires
	stInst, err := Refine(g, instrumented, c, Config{DRP: 4, Shuffles: 3, Seed: 77, KHop: 1, NodeOf: nodeOf, Fabric: fab})
	if err != nil {
		t.Fatal(err)
	}
	if assignHash(bare) != assignHash(instrumented) {
		t.Fatal("zero-fault fabric changed the decomposition")
	}
	if stInst.Faults != (FaultStats{VirtualTicks: stInst.Faults.VirtualTicks}) {
		t.Fatalf("zero-fault fabric recorded fault activity: %+v", stInst.Faults)
	}
	if stBare.LocationExchangeBytes != stInst.LocationExchangeBytes {
		t.Fatalf("exchange bytes drifted: %d vs %d", stBare.LocationExchangeBytes, stInst.LocationExchangeBytes)
	}
	if fc := fab.Counters(); fc.Total() != 0 {
		t.Fatalf("injector fired at rate 0: %+v", fc)
	}
}

// Scripted catastrophe: every group crashes in round 0. The round must
// commit with zero moves, later rounds proceed, and validity holds.
func TestAllGroupsCrashedRoundCommitsEmpty(t *testing.T) {
	g := gen.Mesh2D(40, 40)
	p := stream.HP(g, 8)
	var script []faultsim.Event
	for gi := 0; gi < 4; gi++ {
		script = append(script, faultsim.Event{Kind: faultsim.KindCrash, Round: 0, Index: gi})
	}
	fab := faultsim.NewInjector(faultsim.Config{Script: script})
	st, err := RefineUniform(g, p, Config{DRP: 4, Shuffles: 2, Seed: 5, Fabric: fab})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
	if st.Faults.CrashedGroups != 4 {
		t.Fatalf("crashed groups = %d, want 4", st.Faults.CrashedGroups)
	}
	checkRoundsCounted(t, st)
	if st.RoundGains[0] != 0 {
		t.Fatalf("round 0 realized gain %v with every group dead", st.RoundGains[0])
	}
	// Later rounds survived the massacre and did useful work.
	var later float64
	for _, rg := range st.RoundGains[1:] {
		later += rg
	}
	if later <= 0 {
		t.Fatal("no gain recovered after the crashed round")
	}
}

// checkRoundsCounted asserts Stats.Rounds is the count of rounds that ran,
// not the plan: one gain entry and one server selection per round.
func checkRoundsCounted(t *testing.T, st Stats) {
	t.Helper()
	if st.Rounds != len(st.RoundGains) || st.Rounds != len(st.GroupServers) {
		t.Fatalf("Rounds = %d with %d round gains and %d server selections",
			st.Rounds, len(st.RoundGains), len(st.GroupServers))
	}
}

// A region reduce dropped beyond the retry budget ends shuffling early:
// Rounds reflects the committed rounds, and the result stays valid.
func TestExchangeAbortEndsShufflingEarly(t *testing.T) {
	g := gen.Mesh2D(40, 40)
	p := stream.HP(g, 8)
	pol := faultsim.DefaultPolicy()
	var script []faultsim.Event
	for attempt := 0; attempt <= pol.MaxRetries; attempt++ {
		script = append(script, faultsim.Event{Kind: faultsim.KindDrop, Round: 1, Index: 0, Attempt: attempt})
	}
	fab := faultsim.NewInjector(faultsim.Config{Script: script})
	st, err := RefineUniform(g, p, Config{DRP: 4, Shuffles: 5, Seed: 5, Fabric: fab})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
	if st.Faults.ExchangeAborts != 1 {
		t.Fatalf("exchange aborts = %d, want 1", st.Faults.ExchangeAborts)
	}
	if st.Rounds != 2 {
		t.Fatalf("rounds = %d, want 2 (round-1 exchange died)", st.Rounds)
	}
	checkRoundsCounted(t, st)
	if st.Faults.ExchangeRetries != pol.MaxRetries {
		t.Fatalf("retries = %d, want %d", st.Faults.ExchangeRetries, pol.MaxRetries)
	}
	if st.Faults.BackoffTicks == 0 {
		t.Fatal("no backoff recorded")
	}
}

// Straggler semantics: a delay within the timeout only advances the
// virtual clock; a delay past it drops the group like a crash.
func TestStragglerTimeoutBoundary(t *testing.T) {
	g := gen.Mesh2D(30, 30)
	p0 := stream.HP(g, 8)
	pol := faultsim.DefaultPolicy()

	slowOK := faultsim.NewInjector(faultsim.Config{Script: []faultsim.Event{
		{Kind: faultsim.KindStraggler, Round: 0, Index: 1, Delay: pol.RoundTimeout - 1},
	}})
	pA := p0.Clone()
	stA, err := RefineUniform(g, pA, Config{DRP: 4, Shuffles: 0, Seed: 3, Fabric: slowOK})
	if err != nil {
		t.Fatal(err)
	}
	if stA.Faults.DegradedGroups != 0 {
		t.Fatalf("in-budget straggler degraded a group: %+v", stA.Faults)
	}
	if stA.Faults.VirtualTicks != pol.RoundTimeout {
		t.Fatalf("virtual ticks = %d, want the straggler's %d", stA.Faults.VirtualTicks, pol.RoundTimeout)
	}

	tooSlow := faultsim.NewInjector(faultsim.Config{Script: []faultsim.Event{
		{Kind: faultsim.KindStraggler, Round: 0, Index: 1, Delay: pol.RoundTimeout},
	}})
	pB := p0.Clone()
	stB, err := RefineUniform(g, pB, Config{DRP: 4, Shuffles: 0, Seed: 3, Fabric: tooSlow})
	if err != nil {
		t.Fatal(err)
	}
	if stB.Faults.StragglerDrops != 1 || stB.Faults.DegradedGroups != 1 {
		t.Fatalf("over-budget straggler not dropped: %+v", stB.Faults)
	}
	if err := pB.Validate(g); err != nil {
		t.Fatal(err)
	}

	// The no-fault baseline strictly out-gains the degraded run or ties:
	// the dropped group's moves are pure quality loss.
	pC := p0.Clone()
	stC, err := RefineUniform(g, pC, Config{DRP: 4, Shuffles: 0, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if stB.Gain > stC.Gain {
		t.Fatalf("degraded run gained %v > fault-free %v", stB.Gain, stC.Gain)
	}
}
