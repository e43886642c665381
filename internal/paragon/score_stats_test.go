package paragon

import (
	"testing"

	"paragon/internal/faultsim"
	"paragon/internal/gen"
	"paragon/internal/partition"
	"paragon/internal/stream"
	"paragon/internal/topology"
)

// TestScoreMatchesRefineStats regression-tests the shared scorer against
// the values Refine reports: the Eq. 3 migration cost of the refined
// decomposition must equal Stats.MigrationCost, and Stats.MigratedVertices
// the number of vertices whose owner differs from the input's. Refine
// keeps both totals move by move at the wave barriers while ComputeScore
// folds every vertex; both are integer sums on the objective grid
// (DESIGN.md §10), so they agree exactly. The equalities must also hold
// when a dropped exchange ends shuffling early, and on each of two
// RefineIndexed calls over one index, the second measured against the
// first one's output.
func TestScoreMatchesRefineStats(t *testing.T) {
	g := gen.RMAT(4000, 24000, 0.57, 0.19, 0.19, 3)
	g.UseDegreeWeights()
	cl := topology.PittCluster(2)
	const k = 24
	c, err := cl.PartitionCostMatrix(k, 0)
	if err != nil {
		t.Fatal(err)
	}
	p0 := stream.DG(g, k, stream.DefaultOptions())
	cfg := Config{DRP: 4, Shuffles: 2, Seed: 21}
	check := func(t *testing.T, p, orig *partition.Partitioning, st Stats) {
		t.Helper()
		if st.Moves == 0 {
			t.Fatal("fixture too weak: no moves, migration cost trivially zero")
		}
		s := partition.ComputeScore(g, p, orig.Assign, c, cfg.WithDefaults(k).Alpha)
		if s.MigrationCost == 0 {
			t.Fatal("scorer saw no migration despite kept moves")
		}
		if s.MigrationCost != st.MigrationCost {
			t.Fatalf("scorer MigrationCost %v vs Stats.MigrationCost %v", s.MigrationCost, st.MigrationCost)
		}
		var migrated int64
		for v, q := range p.Assign {
			if q != orig.Assign[v] {
				migrated++
			}
		}
		if migrated != st.MigratedVertices {
			t.Fatalf("%d vertices changed owner vs Stats.MigratedVertices %d", migrated, st.MigratedVertices)
		}
		// The quality triple must be exactly what Evaluate reports — both
		// route through the same one-pass scorer.
		q := partition.Evaluate(g, p, c, cfg.WithDefaults(k).Alpha)
		if q.EdgeCut != s.EdgeCut || q.CommCost != s.CommCost || q.Skewness != s.Skewness {
			t.Fatalf("Evaluate %+v diverges from ComputeScore %+v", q, s)
		}
	}
	t.Run("refine", func(t *testing.T) {
		p := p0.Clone()
		st, err := Refine(g, p, c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		check(t, p, p0, st)
	})
	t.Run("exchange-abort", func(t *testing.T) {
		var script []faultsim.Event
		for attempt := 0; attempt <= faultsim.MaxRetries; attempt++ {
			script = append(script, faultsim.Event{Kind: faultsim.KindDrop, Round: 1, Index: 0, Attempt: attempt})
		}
		fcfg := cfg
		fcfg.Fabric = faultsim.NewInjector(faultsim.Config{Script: script})
		p := p0.Clone()
		st, err := Refine(g, p, c, fcfg)
		if err != nil {
			t.Fatal(err)
		}
		if st.Faults.ExchangeAborts != 1 || st.Rounds != 2 {
			t.Fatalf("%d exchange aborts after %d rounds, want 1 after 2: the fault case is vacuous", st.Faults.ExchangeAborts, st.Rounds)
		}
		check(t, p, p0, st)
	})
	t.Run("indexed-twice", func(t *testing.T) {
		p := p0.Clone()
		ix := partition.BuildIndex(g, p)
		for _, seed := range []int64{21, 22} {
			orig := p.Clone()
			icfg := cfg
			icfg.Seed = seed
			st, err := RefineIndexed(g, p, c, icfg, ix)
			if err != nil {
				t.Fatal(err)
			}
			check(t, p, orig, st)
		}
	})
}
