package paragon

import (
	"bytes"
	"testing"

	"paragon/internal/faultsim"
	"paragon/internal/gen"
	"paragon/internal/obs"
	"paragon/internal/stream"
)

// TestObsDeterminismAcrossWorkers pins the observability half of the
// determinism contract (DESIGN.md §10, §13): for a fixed Seed and fault
// schedule, the serialized trace and metrics must be
// byte-identical at every Workers value — worker count may change wall
// clock and memory placement, never what the run observes about itself.
// Fault injection is on so the fault/retry/backoff event paths are
// exercised, not just the happy path.
func TestObsDeterminismAcrossWorkers(t *testing.T) {
	g := gen.RMAT(3000, 18000, 0.57, 0.19, 0.19, 11)
	g.UseDegreeWeights()

	run := func(workers int) (string, string, Stats) {
		p := stream.DG(g, 24, stream.DefaultOptions())
		tr := obs.NewTracer(0)
		reg := obs.NewRegistry()
		st, err := RefineUniform(g, p, Config{
			DRP: 4, Shuffles: 4, Seed: 9, Workers: workers,
			Fabric: faultsim.NewInjector(faultsim.Config{Seed: 3, Rate: 0.05}),
			Trace:  tr, Metrics: reg,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var trace, prom bytes.Buffer
		if err := obs.WriteJSONL(&trace, tr); err != nil {
			t.Fatal(err)
		}
		if err := obs.WriteProm(&prom, reg); err != nil {
			t.Fatal(err)
		}
		if tr.Len() == 0 {
			t.Fatalf("workers=%d: empty trace", workers)
		}
		return trace.String(), prom.String(), st
	}

	refTrace, refProm, refStats := run(1)
	for _, w := range []int{2, 8} {
		gotTrace, gotProm, gotStats := run(w)
		if gotTrace != refTrace {
			t.Errorf("workers=%d: trace differs from workers=1 (%d vs %d bytes)", w, len(gotTrace), len(refTrace))
		}
		if gotProm != refProm {
			t.Errorf("workers=%d: metrics exposition differs from workers=1:\n%s\nvs\n%s", w, gotProm, refProm)
		}
		if gotStats.Moves != refStats.Moves || gotStats.Gain != refStats.Gain {
			t.Errorf("workers=%d: stats drifted (moves %d vs %d)", w, gotStats.Moves, refStats.Moves)
		}
	}
}

// TestObsMetricsAgreeWithStats pins the one accounting path: every metric
// that mirrors a Stats field is published from the Stats the call returns.
// The fault rate is high enough that the retry, abort, backoff, crash and
// straggler rows are all non-zero, and a second Refine on the same registry
// pins that counters add and gauges overwrite, as session epochs rely on.
func TestObsMetricsAgreeWithStats(t *testing.T) {
	g := gen.RMAT(2000, 12000, 0.57, 0.19, 0.19, 5)
	g.UseDegreeWeights()
	p := stream.DG(g, 16, stream.DefaultOptions())
	reg := obs.NewRegistry()
	setRegionSize(t, 100)
	refineOnce := func(seed int64) Stats {
		st, err := RefineUniform(g, p, Config{DRP: 4, Shuffles: 6, Seed: seed,
			Fabric: faultsim.NewInjector(faultsim.Config{Seed: seed + 5, Rate: 0.45}), Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	rows := []struct {
		name  string
		gauge bool
		of    func(st Stats) float64
	}{
		{"refine_rounds_total", false, func(st Stats) float64 { return float64(st.Rounds) }},
		{"refine_pairs_total", false, func(st Stats) float64 { return float64(st.PairsRefined) }},
		{"refine_moves_total", false, func(st Stats) float64 { return float64(st.Moves) }},
		{"refine_gain", true, func(st Stats) float64 { return st.Gain }},
		{"ship_boundary_vertices_total", false, func(st Stats) float64 { return float64(st.BoundaryShipped) }},
		{"ship_half_edges_total", false, func(st Stats) float64 { return float64(st.ShippedEdgeVolume) }},
		{"exchange_bytes_total", false, func(st Stats) float64 { return float64(st.LocationExchangeBytes) }},
		{"exchange_retries_total", false, func(st Stats) float64 { return float64(st.Faults.ExchangeRetries) }},
		{"exchange_aborts_total", false, func(st Stats) float64 { return float64(st.Faults.ExchangeAborts) }},
		{"fault_crashed_groups_total", false, func(st Stats) float64 { return float64(st.Faults.CrashedGroups) }},
		{"fault_straggler_drops_total", false, func(st Stats) float64 { return float64(st.Faults.StragglerDrops) }},
		{"fault_backoff_ticks_total", false, func(st Stats) float64 { return float64(st.Faults.BackoffTicks) }},
		{"fault_virtual_ticks", true, func(st Stats) float64 { return float64(st.Faults.VirtualTicks) }},
		{"migrate_vertices_total", false, func(st Stats) float64 { return float64(st.MigratedVertices) }},
		{"migrate_cost", true, func(st Stats) float64 { return st.MigrationCost }},
	}
	published := func(name string, gauge bool) float64 {
		if gauge {
			return reg.Gauge(name, "").Value()
		}
		return float64(reg.Counter(name, "").Value())
	}

	first := refineOnce(2)
	for _, row := range rows {
		want := row.of(first)
		if want == 0 {
			t.Errorf("%s: Stats says 0 — the run does not exercise this row", row.name)
		}
		if got := published(row.name, row.gauge); got != want {
			t.Errorf("%s = %v, Stats says %v", row.name, got, want)
		}
	}
	second := refineOnce(3)
	for _, row := range rows {
		want := row.of(second)
		if !row.gauge {
			want += row.of(first)
		} else if want == row.of(first) {
			t.Errorf("%s: both runs say %v — overwriting is not observable", row.name, want)
		}
		if got := published(row.name, row.gauge); got != want {
			t.Errorf("%s after a second Refine = %v, want %v", row.name, got, want)
		}
	}
}

// TestObsTraceAccountsEveryRound asserts the stream's structural
// invariants: one round_start/round_end per committed round, wave events
// properly bracketed, and the pair_refined moves of a round summing to
// the round_end total.
func TestObsTraceAccountsEveryRound(t *testing.T) {
	g := gen.RMAT(2000, 12000, 0.57, 0.19, 0.19, 5)
	g.UseDegreeWeights()
	p := stream.DG(g, 16, stream.DefaultOptions())
	tr := obs.NewTracer(0)
	st, err := RefineUniform(g, p, Config{DRP: 4, Shuffles: 3, Seed: 2, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	ev := tr.Events()
	if ev[0].Kind != obs.KindRefineStart || ev[len(ev)-1].Kind != obs.KindRefineEnd {
		t.Fatalf("stream not bracketed by refine_start/refine_end: %v ... %v", ev[0].Kind, ev[len(ev)-1].Kind)
	}
	starts, ends := 0, 0
	pairMoves := map[int32]int64{}
	roundEnd := map[int32]int64{}
	for _, e := range ev {
		switch e.Kind {
		case obs.KindRoundStart:
			starts++
		case obs.KindRoundEnd:
			ends++
			roundEnd[e.Round] = e.N
		case obs.KindPairRefined:
			pairMoves[e.Round] += e.N
		}
	}
	if starts != st.Rounds || ends != st.Rounds {
		t.Fatalf("round_start=%d round_end=%d, Stats.Rounds=%d", starts, ends, st.Rounds)
	}
	for round, want := range roundEnd {
		if pairMoves[round] != want {
			t.Errorf("round %d: pair_refined moves sum to %d, round_end says %d", round, pairMoves[round], want)
		}
	}
	if int(tr.Events()[len(ev)-1].N) != st.Moves {
		t.Errorf("refine_end N = %d, Stats.Moves = %d", ev[len(ev)-1].N, st.Moves)
	}
}
