package metis

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"paragon/internal/gen"
	"paragon/internal/graph"
	"paragon/internal/partition"
)

// inducedViaBuilder is graph.Induced as it was before the direct fill: a
// map from global to local ids and every internal edge once into a
// graph.Builder. It stays as the reference the direct fill is compared
// against.
func inducedViaBuilder(g *graph.Graph, verts []int32) *graph.Graph {
	local := make(map[int32]int32, len(verts))
	for i, v := range verts {
		local[v] = int32(i)
	}
	bld := graph.NewBuilder(int32(len(verts)))
	for i, v := range verts {
		bld.SetVertexWeight(int32(i), g.VertexWeight(v))
		bld.SetVertexSize(int32(i), g.VertexSize(v))
		adj := g.Neighbors(v)
		w := g.EdgeWeights(v)
		for j, u := range adj {
			if lu, ok := local[u]; ok && v < u {
				bld.AddWeightedEdge(int32(i), lu, w[j])
			}
		}
	}
	return bld.Build()
}

// contractViaBuilder is contract as it was before the direct merge: every
// fine edge once, in its canonical coarse direction, into a
// graph.Builder, which merges the parallel ones by summing. It stays as
// the reference the direct merge is compared against.
func contractViaBuilder(g *graph.Graph, match []int32) (*graph.Graph, []int32) {
	n := g.NumVertices()
	cmap := make([]int32, n)
	for i := range cmap {
		cmap[i] = -1
	}
	var coarseN int32
	for v := int32(0); v < n; v++ {
		if cmap[v] >= 0 {
			continue
		}
		u := match[v]
		cmap[v] = coarseN
		if u != v {
			cmap[u] = coarseN
		}
		coarseN++
	}
	bld := graph.NewBuilder(coarseN)
	vwgt := make([]int64, coarseN)
	vsize := make([]int64, coarseN)
	for v := int32(0); v < n; v++ {
		cv := cmap[v]
		vwgt[cv] += int64(g.VertexWeight(v))
		vsize[cv] += int64(g.VertexSize(v))
		adj := g.Neighbors(v)
		w := g.EdgeWeights(v)
		for i, u := range adj {
			if cu := cmap[u]; cv < cu {
				bld.AddWeightedEdge(cv, cu, w[i])
			}
		}
	}
	for cv := int32(0); cv < coarseN; cv++ {
		bld.SetVertexWeight(cv, clampI32(vwgt[cv]))
		bld.SetVertexSize(cv, clampI32(vsize[cv]))
	}
	return bld.Build(), cmap
}

// requireSameCSR fails unless got and want have the same vertices, rows,
// edge weights, vertex weights and vertex sizes.
func requireSameCSR(t *testing.T, what string, got, want *graph.Graph) {
	t.Helper()
	if got.NumVertices() != want.NumVertices() || got.NumHalfEdges() != want.NumHalfEdges() {
		t.Fatalf("%s: %d vertices / %d half-edges, reference %d / %d", what,
			got.NumVertices(), got.NumHalfEdges(), want.NumVertices(), want.NumHalfEdges())
	}
	for v := int32(0); v < want.NumVertices(); v++ {
		if !slices.Equal(got.Neighbors(v), want.Neighbors(v)) || !slices.Equal(got.EdgeWeights(v), want.EdgeWeights(v)) {
			t.Fatalf("%s: row %d is %v / %v, reference %v / %v", what, v,
				got.Neighbors(v), got.EdgeWeights(v), want.Neighbors(v), want.EdgeWeights(v))
		}
		if got.VertexWeight(v) != want.VertexWeight(v) || got.VertexSize(v) != want.VertexSize(v) {
			t.Fatalf("%s: vertex %d weight/size %d/%d, reference %d/%d", what, v,
				got.VertexWeight(v), got.VertexSize(v), want.VertexWeight(v), want.VertexSize(v))
		}
	}
}

// forEachProcs runs fn at GOMAXPROCS 1 and 2 — the worker counts of the
// row fills — and restores the setting.
func forEachProcs(t *testing.T, fn func(t *testing.T)) {
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			fn(t)
		})
	}
}

// referenceGraphs are the inputs of the equivalence tests: a mesh, a
// degree-weighted power-law graph, an Erdős–Rényi graph, and a graph
// whose vertex weights and sizes saturate int32 when two are summed,
// with weight-0 vertices (which clamp up to 1) and isolated ones.
func referenceGraphs() map[string]*graph.Graph {
	rmat := gen.RMAT(4000, 24000, .57, .19, .19, 5)
	rmat.UseDegreeWeights()
	b := graph.NewBuilder(40)
	for v := int32(0); v < 40; v++ {
		switch v % 4 {
		case 0:
			b.SetVertexWeight(v, math.MaxInt32-3)
			b.SetVertexSize(v, math.MaxInt32/2+7)
		case 1:
			b.SetVertexWeight(v, 0)
			b.SetVertexSize(v, 0)
		}
	}
	for v := int32(0); v+3 < 30; v++ { // 30..39 stay isolated
		b.AddWeightedEdge(v, v+1, 1+v%5)
		b.AddWeightedEdge(v, v+3, 2)
	}
	return map[string]*graph.Graph{
		"mesh":       gen.Mesh2D(60, 70),
		"rmat-dw":    rmat,
		"er":         gen.ErdosRenyi(3000, 4500, 8),
		"saturating": b.Build(),
	}
}

// TestInducedMatchesBuilder checks graph.Induced's direct fill CSR for
// CSR against the Builder reference: every vertex in ascending order,
// random subsets (sparse ones leave isolated vertices) in ascending and
// in shuffled order, and the empty set.
func TestInducedMatchesBuilder(t *testing.T) {
	forEachProcs(t, func(t *testing.T) {
		isolated := 0
		for name, g := range referenceGraphs() {
			rng := rand.New(rand.NewSource(int64(len(name))))
			n := g.NumVertices()
			all := make([]int32, n)
			for i := range all {
				all[i] = int32(i)
			}
			cases := map[string][]int32{"all": all, "empty": {}}
			for _, frac := range []float64{0.1, 0.5} {
				var sub []int32
				for v := int32(0); v < n; v++ {
					if rng.Float64() < frac {
						sub = append(sub, v)
					}
				}
				cases[fmt.Sprintf("%.1f", frac)] = sub
				shuffled := slices.Clone(sub)
				rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
				cases[fmt.Sprintf("%.1f-shuffled", frac)] = shuffled
			}
			for cname, verts := range cases {
				got, orig := graph.Induced(g, verts)
				requireSameCSR(t, name+"/"+cname, got, inducedViaBuilder(g, verts))
				if !slices.Equal(orig, verts) {
					t.Fatalf("%s/%s: local→global map is not verts", name, cname)
				}
				for v := int32(0); v < got.NumVertices(); v++ {
					if got.Degree(v) == 0 {
						isolated++
					}
				}
			}
		}
		if isolated == 0 {
			t.Fatal("no case produced an isolated vertex")
		}
	})
}

// TestContractMatchesBuilder checks contract's direct merge CSR for CSR
// against the Builder reference, on heavy-edge matchings and on random
// matchings of arbitrary (mostly non-adjacent) pairs, including the
// vertex weight and size saturation of clampI32.
func TestContractMatchesBuilder(t *testing.T) {
	forEachProcs(t, func(t *testing.T) {
		saturated := false
		for name, g := range referenceGraphs() {
			rng := rand.New(rand.NewSource(int64(len(name))))
			n := g.NumVertices()
			random := make([]int32, n)
			perm := rng.Perm(int(n))
			for i := 0; i < len(perm); i++ {
				v, u := int32(perm[i]), int32(perm[i])
				if i+1 < len(perm) && rng.Intn(5) > 0 { // about a fifth stay single
					i++
					u = int32(perm[i])
				}
				random[v], random[u] = u, v
			}
			for kind, match := range map[string][]int32{"random": random, "hem": heavyEdgeMatching(g, rng)} {
				// The second contraction merges the first one's summed edge
				// weights.
				for level, cur := 0, g; level < 2; level++ {
					got, gotMap := contract(cur, match)
					want, wantMap := contractViaBuilder(cur, match)
					what := fmt.Sprintf("%s/%s/level%d", name, kind, level)
					requireSameCSR(t, what, got, want)
					if !slices.Equal(gotMap, wantMap) {
						t.Fatalf("%s: cmap differs", what)
					}
					for v := int32(0); v < got.NumVertices(); v++ {
						saturated = saturated || got.VertexWeight(v) == math.MaxInt32
					}
					cur = got
					match = heavyEdgeMatching(cur, rng)
				}
			}
		}
		if !saturated {
			t.Fatal("no case saturated a coarse vertex weight")
		}
	})
}

// fmRefineFullScan is fmRefine as it was before boundary tracking: every
// pass scans every row for the gain (moveGain) and the boundary test
// (hasForeignNeighbor), then refines exactly as fmRefine does. It stays
// as the reference the tracked boundary and the lazy interior gains are
// compared against.
func fmRefineFullScan(g *graph.Graph, side []int8, maxW [2]int64, passes int) {
	n := g.NumVertices()
	if n < 2 {
		return
	}
	const badMoveLimit = 64
	gain := make([]int64, n)
	locked := make([]bool, n)
	w := sideWeights(g, side)
	for pass := 0; pass < passes; pass++ {
		h := &partition.GainHeap{}
		for v := int32(0); v < n; v++ {
			locked[v] = false
			var ext, internal int64
			foreign := false
			ew := g.EdgeWeights(v)
			for i, u := range g.Neighbors(v) {
				if side[u] == side[v] {
					internal += int64(ew[i])
				} else {
					ext += int64(ew[i])
					foreign = true
				}
			}
			gain[v] = ext - internal
			if foreign {
				h.Push(v, gain[v])
			}
		}
		var history []int32
		var prefixGain, bestGain int64
		bestLen, bad := 0, 0
		for h.Len() > 0 && bad < badMoveLimit {
			v, gv, ok := h.PopValid(gain, locked)
			if !ok {
				break
			}
			from := side[v]
			to := 1 - from
			if w[to]+int64(g.VertexWeight(v)) > maxW[to] {
				locked[v] = true
				continue
			}
			side[v] = to
			locked[v] = true
			w[from] -= int64(g.VertexWeight(v))
			w[to] += int64(g.VertexWeight(v))
			history = append(history, v)
			prefixGain += gv
			if prefixGain > bestGain {
				bestGain, bestLen, bad = prefixGain, len(history), 0
			} else {
				bad++
			}
			ew := g.EdgeWeights(v)
			for i, u := range g.Neighbors(v) {
				if locked[u] {
					continue
				}
				if side[u] == from {
					gain[u] += 2 * int64(ew[i])
				} else {
					gain[u] -= 2 * int64(ew[i])
				}
				h.Push(u, gain[u])
			}
		}
		for i := len(history) - 1; i >= bestLen; i-- {
			v := history[i]
			to := side[v]
			from := 1 - to
			side[v] = from
			w[to] -= int64(g.VertexWeight(v))
			w[from] += int64(g.VertexWeight(v))
		}
		if bestGain <= 0 {
			break
		}
	}
}

// TestFMMatchesFullScan checks fmRefine against the full-scan reference
// on random and grown bisections under tight and loose balance bounds,
// starting from every vertex and from the exact boundary, and checks the
// set it returns still covers the boundary of the refined bisection.
func TestFMMatchesFullScan(t *testing.T) {
	for name, g := range referenceGraphs() {
		rng := rand.New(rand.NewSource(int64(len(name))))
		n := g.NumVertices()
		total := g.TotalVertexWeight()
		for trial := 0; trial < 6; trial++ {
			var side []int8
			if trial%2 == 0 {
				side = make([]int8, n)
				for v := range side {
					side[v] = int8(rng.Intn(2))
				}
			} else {
				side = growBisection(g, 0.5, rng)
			}
			slack := []float64{0.51, 0.6, 0.9}[trial/2]
			maxW := [2]int64{int64(float64(total) * slack), int64(float64(total) * slack)}
			want := slices.Clone(side)
			fmRefineFullScan(g, want, maxW, refinePasses)
			for _, exact := range []bool{false, true} {
				got := slices.Clone(side)
				bnd := partition.NewBitset(n)
				for v := int32(0); v < n; v++ {
					bnd.SetTo(v, !exact || isBoundary(g, got, v))
				}
				fmRefine(g, got, bnd, maxW, refinePasses)
				if !slices.Equal(got, want) {
					t.Fatalf("%s trial %d exact=%v: bisection differs from the full-scan reference", name, trial, exact)
				}
				for v := int32(0); v < n; v++ {
					if isBoundary(g, got, v) && !bnd.Get(v) {
						t.Fatalf("%s trial %d: boundary vertex %d missing from the returned set", name, trial, v)
					}
				}
			}
		}
	}
}

func isBoundary(g *graph.Graph, side []int8, v int32) bool {
	for _, u := range g.Neighbors(v) {
		if side[u] != side[v] {
			return true
		}
	}
	return false
}
