// Package gen provides seeded, deterministic synthetic graph generators
// that stand in for the paper's 13 real-world datasets (Table 2). Each
// generator targets one structural class used in the evaluation:
//
//   - RMAT / Kronecker: skewed power-law graphs (social, collaboration,
//     communication networks — com-lj, YouTube, DBLP, Enron, friendster);
//   - BarabasiAlbert: preferential attachment (internet topology —
//     as-skitter);
//   - WattsStrogatz: high clustering, short paths (product co-purchase —
//     com-amazon);
//   - Mesh2D / Mesh3D: finite-element meshes (wave, auto, 333SP);
//   - RoadGrid: near-planar, low-degree networks (USA-road-d, roadNet-PA);
//   - ErdosRenyi: uniform random baseline for tests.
//
// All generators produce undirected, connected-ish simple graphs with unit
// edge weights; callers apply the paper's degree-based vertex weights via
// (*graph.Graph).UseDegreeWeights.
package gen

import (
	"fmt"
	"math/rand"

	"paragon/internal/graph"
)

// RMAT generates a recursive-matrix (Kronecker) graph with n vertices
// (rounded up to a power of two internally, then compacted) and
// approximately m undirected edges, using partition probabilities a, b, c
// (d = 1-a-b-c). Typical social-network parameters are a=0.57, b=0.19,
// c=0.19. Vertex ids are randomly permuted so that locality does not leak
// the recursive structure to streaming partitioners.
func RMAT(n int32, m int64, a, b, c float64, seed int64) *graph.Graph {
	if n < 2 {
		panic("gen: RMAT needs n >= 2")
	}
	if a <= 0 || b < 0 || c < 0 || a+b+c >= 1 {
		panic(fmt.Sprintf("gen: RMAT bad probabilities a=%v b=%v c=%v", a, b, c))
	}
	rng := rand.New(rand.NewSource(seed))
	levels := 0
	for (int64(1) << levels) < int64(n) {
		levels++
	}
	size := int64(1) << levels
	perm := rng.Perm(int(size))
	bld := graph.NewBuilder(n)
	attempts := m * 4
	var added int64
	seen := make(map[int64]struct{}, m)
	for i := int64(0); i < attempts && added < m; i++ {
		var u, v int64
		for l := 0; l < levels; l++ {
			r := rng.Float64()
			u <<= 1
			v <<= 1
			switch {
			case r < a:
				// top-left: no bits set
			case r < a+b:
				v |= 1
			case r < a+b+c:
				u |= 1
			default:
				u |= 1
				v |= 1
			}
		}
		pu, pv := int64(perm[u])%int64(n), int64(perm[v])%int64(n)
		if pu == pv {
			continue
		}
		if pu > pv {
			pu, pv = pv, pu
		}
		key := pu*int64(n) + pv
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		bld.AddEdge(int32(pu), int32(pv))
		added++
	}
	ensureNoIsolates(bld, rng)
	return bld.Build()
}

// BarabasiAlbert generates a preferential-attachment graph: vertices
// arrive one at a time and attach k edges to existing vertices chosen
// proportionally to their current degree.
func BarabasiAlbert(n int32, k int, seed int64) *graph.Graph {
	if n < int32(k)+1 || k < 1 {
		panic("gen: BarabasiAlbert needs n > k >= 1")
	}
	rng := rand.New(rand.NewSource(seed))
	bld := graph.NewBuilder(n)
	// Repeated-vertex list: picking a uniform element is equivalent to
	// degree-proportional selection.
	targets := make([]int32, 0, int64(n)*int64(k)*2)
	// Seed clique of k+1 vertices.
	for u := int32(0); u <= int32(k); u++ {
		for v := u + 1; v <= int32(k); v++ {
			bld.AddEdge(u, v)
			targets = append(targets, u, v)
		}
	}
	chosen := make(map[int32]struct{}, k)
	picks := make([]int32, 0, k)
	for v := int32(k) + 1; v < n; v++ {
		for id := range chosen {
			delete(chosen, id)
		}
		picks = picks[:0]
		for len(chosen) < k {
			u := targets[rng.Intn(len(targets))]
			if _, dup := chosen[u]; dup {
				continue
			}
			chosen[u] = struct{}{}
			picks = append(picks, u)
		}
		// Iterate picks in selection order, not map order: map iteration
		// is randomized per run and would leak into the edge insertion
		// order and the targets list, breaking the package's seeded
		// determinism guarantee.
		for _, u := range picks {
			bld.AddEdge(v, u)
			targets = append(targets, v, u)
		}
	}
	return bld.Build()
}

// ErdosRenyi generates G(n, m): m distinct uniform random edges.
func ErdosRenyi(n int32, m int64, seed int64) *graph.Graph {
	maxM := int64(n) * int64(n-1) / 2
	if m > maxM {
		panic(fmt.Sprintf("gen: ErdosRenyi m=%d exceeds max %d", m, maxM))
	}
	rng := rand.New(rand.NewSource(seed))
	bld := graph.NewBuilder(n)
	seen := make(map[int64]struct{}, m)
	for added := int64(0); added < m; {
		u, v := int32(rng.Intn(int(n))), int32(rng.Intn(int(n)))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		key := int64(u)*int64(n) + int64(v)
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		bld.AddEdge(u, v)
		added++
	}
	ensureNoIsolates(bld, rng)
	return bld.Build()
}

// WattsStrogatz generates a small-world graph: a ring lattice where each
// vertex connects to its k nearest neighbors on each side, with each edge
// rewired to a random endpoint with probability beta.
func WattsStrogatz(n int32, k int, beta float64, seed int64) *graph.Graph {
	if k < 1 || int32(2*k) >= n {
		panic("gen: WattsStrogatz needs 1 <= k and 2k < n")
	}
	rng := rand.New(rand.NewSource(seed))
	bld := graph.NewBuilder(n)
	type pair struct{ u, v int32 }
	seen := make(map[pair]struct{}, int64(n)*int64(k))
	add := func(u, v int32) bool {
		if u == v {
			return false
		}
		if u > v {
			u, v = v, u
		}
		if _, dup := seen[pair{u, v}]; dup {
			return false
		}
		seen[pair{u, v}] = struct{}{}
		bld.AddEdge(u, v)
		return true
	}
	for v := int32(0); v < n; v++ {
		for j := 1; j <= k; j++ {
			u := (v + int32(j)) % n
			if rng.Float64() < beta {
				// Rewire: try a few random targets before falling back.
				done := false
				for t := 0; t < 8 && !done; t++ {
					done = add(v, int32(rng.Intn(int(n))))
				}
				if !done {
					add(v, u)
				}
			} else {
				add(v, u)
			}
		}
	}
	return bld.Build()
}

// Mesh2D generates a triangulated rows×cols grid: the FEM-style mesh class
// (wave, 333SP). Each cell contributes its right, down, and one diagonal
// edge, giving interior degree 6.
func Mesh2D(rows, cols int32) *graph.Graph {
	if rows < 2 || cols < 2 {
		panic("gen: Mesh2D needs rows, cols >= 2")
	}
	n := rows * cols
	bld := graph.NewBuilder(n)
	id := func(r, c int32) int32 { return r*cols + c }
	for r := int32(0); r < rows; r++ {
		for c := int32(0); c < cols; c++ {
			if c+1 < cols {
				bld.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				bld.AddEdge(id(r, c), id(r+1, c))
			}
			if r+1 < rows && c+1 < cols {
				bld.AddEdge(id(r, c), id(r+1, c+1)) // triangulating diagonal
			}
		}
	}
	return bld.Build()
}

// Mesh3D generates an x×y×z hexahedral grid: the 3D FEM class (auto).
func Mesh3D(x, y, z int32) *graph.Graph {
	if x < 2 || y < 2 || z < 2 {
		panic("gen: Mesh3D needs x, y, z >= 2")
	}
	n := x * y * z
	bld := graph.NewBuilder(n)
	id := func(i, j, k int32) int32 { return (i*y+j)*z + k }
	for i := int32(0); i < x; i++ {
		for j := int32(0); j < y; j++ {
			for k := int32(0); k < z; k++ {
				if i+1 < x {
					bld.AddEdge(id(i, j, k), id(i+1, j, k))
				}
				if j+1 < y {
					bld.AddEdge(id(i, j, k), id(i, j+1, k))
				}
				if k+1 < z {
					bld.AddEdge(id(i, j, k), id(i, j, k+1))
				}
			}
		}
	}
	return bld.Build()
}

// RoadGrid generates a near-planar road-network-like graph: a rows×cols
// grid where each grid edge is kept with probability keep and a sparse set
// of diagonal "shortcut" edges is added with probability diag. Average
// degree lands near the 2.4–2.8 of real road networks for keep≈0.7.
func RoadGrid(rows, cols int32, keep, diag float64, seed int64) *graph.Graph {
	if rows < 2 || cols < 2 {
		panic("gen: RoadGrid needs rows, cols >= 2")
	}
	rng := rand.New(rand.NewSource(seed))
	n := rows * cols
	bld := graph.NewBuilder(n)
	id := func(r, c int32) int32 { return r*cols + c }
	for r := int32(0); r < rows; r++ {
		for c := int32(0); c < cols; c++ {
			if c+1 < cols && rng.Float64() < keep {
				bld.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows && rng.Float64() < keep {
				bld.AddEdge(id(r, c), id(r+1, c))
			}
			if r+1 < rows && c+1 < cols && rng.Float64() < diag {
				bld.AddEdge(id(r, c), id(r+1, c+1))
			}
		}
	}
	ensureNoIsolates(bld, rng)
	return bld.Build()
}

// SampleEdges returns a copy of g in which each undirected edge is kept
// independently with probability p — the "friendster-p" scaling series of
// §7.3. Vertex count, weights and sizes are preserved.
func SampleEdges(g *graph.Graph, p float64, seed int64) *graph.Graph {
	if p < 0 || p > 1 {
		panic("gen: SampleEdges needs 0 <= p <= 1")
	}
	rng := rand.New(rand.NewSource(seed))
	n := g.NumVertices()
	bld := graph.NewBuilder(n)
	for v := int32(0); v < n; v++ {
		adj := g.Neighbors(v)
		w := g.EdgeWeights(v)
		for i, u := range adj {
			if v < u && rng.Float64() < p {
				bld.AddWeightedEdge(v, u, w[i])
			}
		}
		bld.SetVertexWeight(v, g.VertexWeight(v))
		bld.SetVertexSize(v, g.VertexSize(v))
	}
	out := bld.Build()
	return out
}

// ensureNoIsolates attaches every isolated vertex to a random other vertex
// so downstream partitioners and BSP apps see a degenerate-free graph.
// Isolates are found by scanning the builder's staging arrays (same set,
// same ascending order, same rng draws as the historical throwaway-Build
// scan, so seeded outputs are unchanged).
func ensureNoIsolates(bld *graph.Builder, rng *rand.Rand) {
	n := bld.NumVertices()
	if n < 2 {
		return
	}
	for _, v := range bld.AppendIsolated(nil) {
		u := int32(rng.Intn(int(n)))
		for u == v {
			u = int32(rng.Intn(int(n)))
		}
		bld.AddEdge(v, u)
	}
}
