package parmetis

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"paragon/internal/gen"
	"paragon/internal/graph"
	"paragon/internal/metis"
	"paragon/internal/partition"
	"paragon/internal/stream"
)

// kwayRefineWithMap is the diffusion's cut repair as this package kept it
// before it called metis.RefineKWay: the same sweep, with a per-vertex map
// of affinities and a first-seen candidate list. It stays as the reference
// the shared refiner is compared against.
func kwayRefineWithMap(g *graph.Graph, p *partition.Partitioning, bound int64, passes int) {
	load := p.Weights(g)
	for pass := 0; pass < passes; pass++ {
		improved := false
		for v := int32(0); v < g.NumVertices(); v++ {
			pv := p.Assign[v]
			adj := g.Neighbors(v)
			ew := g.EdgeWeights(v)
			var internal int64
			aff := map[int32]int64{}
			var cand []int32 // first-seen order, not map order: ties must be deterministic
			for i, u := range adj {
				pu := p.Assign[u]
				if pu == pv {
					internal += int64(ew[i])
				} else {
					if _, seen := aff[pu]; !seen {
						cand = append(cand, pu)
					}
					aff[pu] += int64(ew[i])
				}
			}
			if len(cand) == 0 {
				continue
			}
			w := int64(g.VertexWeight(v))
			best := int32(-1)
			var bestGain int64
			for _, pu := range cand {
				gain := aff[pu] - internal
				if gain > bestGain && load[pu]+w <= bound {
					best, bestGain = pu, gain
				}
			}
			if best >= 0 {
				p.Assign[v] = best
				load[pv] -= w
				load[best] += w
				improved = true
			}
		}
		if !improved {
			break
		}
	}
}

// underloadedNeighborWithMap is bestUnderloadedNeighbor as it was before
// the dense row: a per-call map of affinities beside the first-seen
// candidate list. It stays as the reference the dense row is compared
// against.
func underloadedNeighborWithMap(g *graph.Graph, p *partition.Partitioning, v int32, load []int64, bound int64) int32 {
	w := int64(g.VertexWeight(v))
	best := int32(-1)
	var bestAff int64 = -1
	aff := map[int32]int64{}
	var cand []int32 // first-seen order, so ties resolve deterministically
	adj := g.Neighbors(v)
	ew := g.EdgeWeights(v)
	for i, u := range adj {
		pu := p.Assign[u]
		if pu != p.Assign[v] {
			if _, seen := aff[pu]; !seen {
				cand = append(cand, pu)
			}
			aff[pu] += int64(ew[i])
		}
	}
	for _, pu := range cand {
		if a := aff[pu]; load[pu]+w <= bound && a > bestAff {
			best, bestAff = pu, a
		}
	}
	return best
}

// referenceStarts yields the decompositions the equivalence tests start
// from: a hashed, a greedy (overloaded at eps 0.3) and a uniformly random
// one, on a mesh and on a degree-weighted power-law and Erdős–Rényi
// graph, at k = 2, 7 and 32.
func referenceStarts(fn func(name string, g *graph.Graph, p *partition.Partitioning)) {
	rmat := gen.RMAT(4000, 24000, .57, .19, .19, 6)
	rmat.UseDegreeWeights()
	er := gen.ErdosRenyi(3000, 9000, 2)
	er.UseDegreeWeights()
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{{"mesh50", gen.Mesh2D(50, 50)}, {"rmat4k-dw", rmat}, {"er3k-dw", er}} {
		for _, k := range []int32{2, 7, 32} {
			rng := rand.New(rand.NewSource(int64(k)))
			random := partition.New(k, tc.g.NumVertices())
			for v := range random.Assign {
				random.Assign[v] = rng.Int31n(k)
			}
			fn(fmt.Sprintf("%s/k%d/hp", tc.name, k), tc.g, stream.HP(tc.g, k))
			fn(fmt.Sprintf("%s/k%d/dg", tc.name, k), tc.g, stream.DG(tc.g, k, stream.Options{Eps: 0.3}))
			fn(fmt.Sprintf("%s/k%d/random", tc.name, k), tc.g, random)
		}
	}
}

// TestRefineKWayMatchesMapReference: under a tight and a loose bound,
// metis.RefineKWay leaves every start exactly as the map reference does.
func TestRefineKWayMatchesMapReference(t *testing.T) {
	moved := 0
	referenceStarts(func(name string, g *graph.Graph, p *partition.Partitioning) {
		for _, eps := range []float64{0.02, 0.1} {
			bound := partition.BalanceBound(g, p.K, eps)
			got, want := p.Clone(), p.Clone()
			metis.RefineKWay(g, got, bound, refinePasses)
			kwayRefineWithMap(g, want, bound, refinePasses)
			if !slices.Equal(got.Assign, want.Assign) {
				t.Fatalf("%s/eps%v: RefineKWay differs from the map reference", name, eps)
			}
			for v := range p.Assign {
				if got.Assign[v] != p.Assign[v] {
					moved++
				}
			}
		}
	})
	if moved == 0 {
		t.Fatal("no start moved a vertex; the comparison saw nothing")
	}
}

// TestUnderloadedNeighborMatchesMapReference: for every vertex of every
// start, under bounds that admit no, some and every neighbouring
// partition, the dense row picks what the map reference picks, and leaves
// the row zeroed.
func TestUnderloadedNeighborMatchesMapReference(t *testing.T) {
	found, none := 0, 0
	referenceStarts(func(name string, g *graph.Graph, p *partition.Partitioning) {
		load := p.Weights(g)
		aff, cand := make([]int64, p.K), make([]int32, 0, p.K)
		for _, eps := range []float64{0, 0.05, 0.5} {
			bound := partition.BalanceBound(g, p.K, eps)
			for v := int32(0); v < g.NumVertices(); v++ {
				got := bestUnderloadedNeighbor(g, p, v, load, bound, aff, cand)
				if want := underloadedNeighborWithMap(g, p, v, load, bound); got != want {
					t.Fatalf("%s/eps%v: vertex %d goes to %d, map reference %d", name, eps, v, got, want)
				}
				if got < 0 {
					none++
				} else {
					found++
				}
			}
			if slices.ContainsFunc(aff, func(a int64) bool { return a != 0 }) {
				t.Fatalf("%s/eps%v: the affinity row was not zeroed", name, eps)
			}
		}
	})
	if found == 0 || none == 0 {
		t.Fatalf("%d vertices found a partition, %d none: the comparison needs both", found, none)
	}
}
