package paragon

import (
	"testing"

	"paragon/internal/gen"
	"paragon/internal/partition"
	"paragon/internal/stream"
	"paragon/internal/topology"
)

// TestScoreMatchesRefineStats regression-tests the shared scorer against
// the values Refine reports: the Eq. 3 migration cost of the refined
// decomposition must equal Stats.MigrationCost. Refine's migration sweep
// walks the diff bitset while ComputeScore folds every vertex; both are
// integer sums on the objective grid (DESIGN.md §10), so they agree
// exactly.
func TestScoreMatchesRefineStats(t *testing.T) {
	g := gen.RMAT(4000, 24000, 0.57, 0.19, 0.19, 3)
	g.UseDegreeWeights()
	cl := topology.PittCluster(2)
	const k = 24
	c, err := cl.PartitionCostMatrix(k, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := stream.DG(g, k, stream.DefaultOptions())
	orig := p.Clone()
	cfg := Config{DRP: 4, Shuffles: 2, Seed: 21}
	st, err := Refine(g, p, c, cfg)
	if err != nil {
		t.Fatal(err)
	}
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
	// The quality triple must be exactly what Evaluate reports — both
	// route through the same one-pass scorer.
	q := partition.Evaluate(g, p, c, cfg.WithDefaults(k).Alpha)
	if q.EdgeCut != s.EdgeCut || q.CommCost != s.CommCost || q.Skewness != s.Skewness {
		t.Fatalf("Evaluate %+v diverges from ComputeScore %+v", q, s)
	}
}
