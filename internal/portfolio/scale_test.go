package portfolio

import (
	"math"
	"slices"
	"testing"

	"paragon/internal/graph"
	"paragon/internal/paragon"
	"paragon/internal/partition"
	"paragon/internal/topology"
)

// timesThree is g with every edge weight and every vertex size ×3 and the
// vertex weights, and so the balance bound, unchanged.
func timesThree(g *graph.Graph) *graph.Graph {
	vw, vs := make([]int32, g.NumVertices()), make([]int32, g.NumVertices())
	for v := range vw {
		vw[v], vs[v] = g.VertexWeight(int32(v)), 3*g.VertexSize(int32(v))
	}
	return graph.FromSymmetricRows(g.NumVertices(), vw, vs, g.Degree, func(v int32, to, w []int32) {
		copy(to, g.Neighbors(v))
		for i, x := range g.EdgeWeights(v) {
			w[i] = 3 * x
		}
	}, 1)
}

// portfolioMoves lists each member's kept moves, then the combine's.
func portfolioMoves(st Stats) []int {
	var moves []int
	for _, ms := range st.Members {
		moves = append(moves, ms.Moves)
	}
	return append(moves, st.CombineMoves)
}

// A metamorphic relation (ROADMAP item 4): every Eq. 5 gain, communication
// and migration term alike, scales by 3 when the edge weights and vertex
// sizes do, so paragon.Refine and portfolio.Refine must take the same moves
// and land on the same assignment, at exactly 3× the objective.
func TestRefineInvariantUnderWeightAndSizeScaling(t *testing.T) {
	const k = 16
	pitt, err := topology.PittCluster(2).PartitionCostMatrix(k, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, mc := range []struct {
		name string
		c    [][]float64
	}{{"uniform", topology.UniformMatrix(k)}, {"pitt", pitt}} {
		for _, seed := range []int64{1, 7, 42} {
			g, p0 := ledgerInput(seed)
			g3 := timesThree(g)
			cfg := paragon.DefaultConfig()
			cfg.Seed = seed
			cfg.Portfolio.Size = 4
			check := func(door string, p, p3 *partition.Partitioning, moves, moves3 []int) {
				t.Helper()
				if moves[0] == 0 {
					t.Fatalf("%s %s seed %d kept no move; the relation was not exercised", door, mc.name, seed)
				}
				if !slices.Equal(p.Assign, p3.Assign) {
					t.Fatalf("%s %s seed %d: the ×3 graph refined to another assignment", door, mc.name, seed)
				}
				if !slices.Equal(moves, moves3) {
					t.Fatalf("%s %s seed %d: moves %v, %v on the ×3 graph", door, mc.name, seed, moves, moves3)
				}
				obj := objective(g, p, p0.Assign, mc.c, cfg.Alpha)
				if obj3 := objective(g3, p3, p0.Assign, mc.c, cfg.Alpha); obj3 != 3*obj {
					t.Fatalf("%s %s seed %d: Comm + Mig %d on the ×3 graph, want 3 × %d", door, mc.name, seed, obj3, obj)
				}
			}

			p, p3 := p0.Clone(), p0.Clone()
			st, err := paragon.Refine(g, p, mc.c, cfg)
			if err != nil {
				t.Fatal(err)
			}
			st3, err := paragon.Refine(g3, p3, mc.c, cfg)
			if err != nil {
				t.Fatal(err)
			}
			check("paragon.Refine", p, p3, []int{st.Moves}, []int{st3.Moves})

			p, p3 = p0.Clone(), p0.Clone()
			pst, err := Refine(g, p, mc.c, cfg)
			if err != nil {
				t.Fatal(err)
			}
			pst3, err := Refine(g3, p3, mc.c, cfg)
			if err != nil {
				t.Fatal(err)
			}
			check("portfolio.Refine", p, p3, portfolioMoves(pst), portfolioMoves(pst3))
		}
	}
}

// scaled is c with every entry ×2^j.
func scaled(c [][]float64, j int) [][]float64 {
	out := make([][]float64, len(c))
	for i, row := range c {
		out[i] = make([]float64, len(row))
		for q, x := range row {
			out[i][q] = math.Ldexp(x, j)
		}
	}
	return out
}

// The 2^j relation (ROADMAP item 4): scaling the cost matrix by 2^j leaves
// partition.CheckCosts' integer matrix as it was and shifts only its
// exponent, so paragon.Refine and portfolio.Refine must take the same
// moves to the same assignment, and every cost they report must be exactly
// 2^j times the unscaled one. Same corpus as the ×3 relation above. The
// uniform matrix also goes in times non-dyadic constants.
func TestRefineInvariantUnderCostScaling(t *testing.T) {
	const k = 16
	pitt, err := topology.PittCluster(2).PartitionCostMatrix(k, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, mc := range []struct {
		name string
		c    [][]float64
	}{{"uniform", topology.UniformMatrix(k)}, {"pitt", pitt}} {
		for _, seed := range []int64{1, 7, 42} {
			g, p0 := ledgerInput(seed)
			cfg := paragon.DefaultConfig()
			cfg.Seed = seed
			cfg.Portfolio.Size = 4
			p := p0.Clone()
			st, err := paragon.Refine(g, p, mc.c, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if st.Moves == 0 {
				t.Fatalf("%s seed %d kept no move; the relation was not exercised", mc.name, seed)
			}
			pp := p0.Clone()
			pst, err := Refine(g, pp, mc.c, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, j := range []int{-3, 5} {
				c2 := scaled(mc.c, j)
				p2 := p0.Clone()
				st2, err := paragon.Refine(g, p2, c2, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(p.Assign, p2.Assign) || st.Moves != st2.Moves || st.PairsRefined != st2.PairsRefined ||
					st.MigratedVertices != st2.MigratedVertices || st.BoundaryShipped != st2.BoundaryShipped {
					t.Fatalf("paragon.Refine %s seed %d j %d: another assignment or count (moves %d, %d)", mc.name, seed, j, st.Moves, st2.Moves)
				}
				if st2.Gain != math.Ldexp(st.Gain, j) || st2.MigrationCost != math.Ldexp(st.MigrationCost, j) {
					t.Fatalf("paragon.Refine %s seed %d j %d: gain %v, migration %v; want 2^j × %v, %v", mc.name, seed, j, st2.Gain, st2.MigrationCost, st.Gain, st.MigrationCost)
				}

				pp2 := p0.Clone()
				pst2, err := Refine(g, pp2, c2, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(pp.Assign, pp2.Assign) || !slices.Equal(portfolioMoves(pst), portfolioMoves(pst2)) {
					t.Fatalf("portfolio.Refine %s seed %d j %d: another assignment or moves (%v, %v)", mc.name, seed, j, portfolioMoves(pst), portfolioMoves(pst2))
				}
				if got, want := pst2.SelectedScore.Cost(), math.Ldexp(pst.SelectedScore.Cost(), j); got != want {
					t.Fatalf("portfolio.Refine %s seed %d j %d: selected cost %v, want %v", mc.name, seed, j, got, want)
				}
			}
			if mc.name != "uniform" {
				continue
			}
			// Any positive constant as a uniform matrix: every entry off the
			// diagonal quantises to one integer, which every gain carries as
			// a factor, so the moves are those at c = 1. A non-dyadic
			// constant does not scale the grid exactly, so costs are not
			// compared.
			for _, f := range []float64{3, 0.1, 7.3, 1e6} {
				cf := topology.UniformMatrix(k)
				for _, row := range cf {
					for q := range row {
						row[q] *= f
					}
				}
				p2 := p0.Clone()
				st2, err := paragon.Refine(g, p2, cf, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(p.Assign, p2.Assign) || st.Moves != st2.Moves || st.PairsRefined != st2.PairsRefined {
					t.Fatalf("paragon.Refine uniform×%v seed %d: another assignment or count (moves %d, %d)", f, seed, st.Moves, st2.Moves)
				}
				pp2 := p0.Clone()
				pst2, err := Refine(g, pp2, cf, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(pp.Assign, pp2.Assign) || !slices.Equal(portfolioMoves(pst), portfolioMoves(pst2)) {
					t.Fatalf("portfolio.Refine uniform×%v seed %d: another assignment or moves (%v, %v)", f, seed, portfolioMoves(pst), portfolioMoves(pst2))
				}
			}
		}
	}
}
