package partition

import (
	"math/rand"
	"testing"

	"paragon/internal/gen"
	"paragon/internal/graph"
)

// nonUniformCost builds a k×k cost matrix with distinct off-diagonal
// entries so accumulation-order bugs can't hide behind symmetry.
func nonUniformCost(k int32, rng *rand.Rand) [][]float64 {
	c := make([][]float64, k)
	for i := range c {
		c[i] = make([]float64, k)
		for j := range c[i] {
			if i != j {
				c[i][j] = 1 + rng.Float64()*4
			}
		}
	}
	return c
}

// TestScoreMatchesMetrics pins the shared-scorer contract: every field of
// ComputeScore equals the standalone metric function, on several graph
// families and random decompositions. Evaluate is checked through the
// same lens since it routes through the scorer.
func TestScoreMatchesMetrics(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"er", gen.ErdosRenyi(500, 2500, 3)},
		{"ba", gen.BarabasiAlbert(400, 4, 5)},
		{"mesh", gen.Mesh2D(20, 20)},
	}
	for _, tc := range graphs {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			const k = 9
			c := nonUniformCost(k, rng)
			for trial := 0; trial < 4; trial++ {
				p := randomPartitioning(tc.g, k, rng)
				orig := randomPartitioning(tc.g, k, rng)
				alpha := 0.5 + rng.Float64()
				s := ComputeScore(tc.g, p, orig.Assign, c, alpha)
				if want := EdgeCut(tc.g, p); s.EdgeCut != want {
					t.Fatalf("trial %d: EdgeCut = %d, want %d", trial, s.EdgeCut, want)
				}
				if want := CommCost(tc.g, p, c, alpha); s.CommCost != want {
					t.Fatalf("trial %d: CommCost = %v, want %v (not bitwise equal)", trial, s.CommCost, want)
				}
				if want := MigrationCost(tc.g, orig, p, c); s.MigrationCost != want {
					t.Fatalf("trial %d: MigrationCost = %v, want %v (not bitwise equal)", trial, s.MigrationCost, want)
				}
				if want := Skewness(tc.g, p); s.Skewness != want {
					t.Fatalf("trial %d: Skewness = %v, want %v (not bitwise equal)", trial, s.Skewness, want)
				}
				if nomig := ComputeScore(tc.g, p, nil, c, alpha); nomig.MigrationCost != 0 {
					t.Fatalf("trial %d: nil orig must score MigrationCost 0, got %v", trial, nomig.MigrationCost)
				}
				q := Evaluate(tc.g, p, c, alpha)
				if q.EdgeCut != s.EdgeCut || q.CommCost != s.CommCost || q.Skewness != s.Skewness {
					t.Fatalf("trial %d: Evaluate %+v diverges from ComputeScore %+v", trial, q, s)
				}
				cs, err := CheckCosts(c, k)
				if err != nil {
					t.Fatal(err)
				}
				wbuf := make([]int64, k)
				if into := ComputeScoreInto(tc.g, p, orig.Assign, cs, Alpha(alpha), wbuf); into != s {
					t.Fatalf("trial %d: ComputeScoreInto %+v diverges from ComputeScore %+v", trial, into, s)
				}
			}
		})
	}
}

func TestScoreBetterTotalOrder(t *testing.T) {
	base := Score{EdgeCut: 10, Comm: 5, Mig: 2, Skewness: 1.1}
	cases := []struct {
		name string
		a, b Score
		want bool
	}{
		{"lower cost wins", Score{Comm: 4}, Score{Comm: 5}, true},
		{"higher cost loses", Score{Comm: 6}, Score{Comm: 5}, false},
		{"migration counts toward cost", Score{Comm: 3, Mig: 3}, Score{Comm: 5}, false},
		{"cost tie, lower cut wins", Score{Comm: 5, EdgeCut: 9}, Score{Comm: 5, EdgeCut: 10}, true},
		{"cost+cut tie, lower skew wins", Score{Comm: 5, EdgeCut: 10, Skewness: 1.0}, Score{Comm: 5, EdgeCut: 10, Skewness: 1.1}, true},
		{"only the exact cost decides", Score{Comm: 4, CommCost: 9}, Score{Comm: 5, CommCost: 1}, true},
		{"full tie is not better", base, base, false},
	}
	for _, tc := range cases {
		if got := tc.a.Better(tc.b); got != tc.want {
			t.Errorf("%s: Better = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestIndexRebuild checks that re-seeding an index in place after
// overwriting the assignment wholesale (the pooled-scratch path) restores
// every maintained invariant, repeatedly on the same backing arrays.
func TestIndexRebuild(t *testing.T) {
	g := gen.ErdosRenyi(600, 3000, 17)
	rng := rand.New(rand.NewSource(23))
	const k = 8
	p := randomPartitioning(g, k, rng)
	ix := BuildIndex(g, p)
	for trial := 0; trial < 5; trial++ {
		// Mutate through Move first so the counts are mid-life, then clobber
		// the assignment directly — the state Rebuild must recover from.
		for i := 0; i < 200; i++ {
			ix.Move(rng.Int31n(g.NumVertices()), rng.Int31n(k))
		}
		for v := range p.Assign {
			p.Assign[v] = rng.Int31n(k)
		}
		ix.Rebuild()
		if err := ix.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}
