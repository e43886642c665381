package partition

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"paragon/internal/gen"
	"paragon/internal/graph"
)

// bruteProfile is the definition the table implements: Σ w(v,u) over
// neighbors u with assign[u] == q.
func bruteProfile(g *graph.Graph, assign []int32, v, q int32) int64 {
	var sum int64
	w := g.EdgeWeights(v)
	for i, u := range g.Neighbors(v) {
		if assign[u] == q {
			sum += int64(w[i])
		}
	}
	return sum
}

func mustProfile(t *testing.T, g *graph.Graph, assign []int32, k int32) *NeighborProfile {
	t.Helper()
	np, err := BuildNeighborProfile(g, assign, k, 1)
	if err != nil {
		t.Fatal(err)
	}
	return np
}

// checkSegments asserts the layout invariants of every materialized
// segment: live entries within capacity min(deg, k), no two capacities
// overlapping, inside the chunk the offset names, partitions strictly
// ascending, weights positive.
func checkSegments(t *testing.T, g *graph.Graph, np *NeighborProfile, k int32) {
	t.Helper()
	var vs []int32
	for v := int32(0); v < g.NumVertices(); v++ {
		if !np.Materialized(v) {
			continue
		}
		vs = append(vs, v)
		if c := min(g.Degree(v), k); np.live[v] < 0 || np.live[v] > c {
			t.Fatalf("v=%d: %d live entries in a segment of capacity %d", v, np.live[v], c)
		}
		parts, ws := np.Segment(v)
		for i := range parts {
			if i > 0 && parts[i-1] >= parts[i] {
				t.Fatalf("v=%d: segment partitions not strictly ascending: %v", v, parts)
			}
			if ws[i] <= 0 {
				t.Fatalf("v=%d: entry for partition %d has weight %d", v, parts[i], ws[i])
			}
		}
	}
	slices.SortFunc(vs, func(a, b int32) int { return int(np.off[a]) - int(np.off[b]) })
	tail := int64(0)
	for _, v := range vs {
		if int64(np.off[v]) != tail {
			t.Fatalf("v=%d: segment starts at %d, the one before it ends at %d", v, np.off[v], tail)
		}
		tail += int64(min(g.Degree(v), k))
		chunk, _, lo, _ := np.segment(v)
		if int(np.off[v]>>profileChunkShift) >= len(np.chunks) || lo+int(min(g.Degree(v), k)) > len(chunk) {
			t.Fatalf("v=%d: segment [%d, +%d) reaches past its chunk", v, np.off[v], min(g.Degree(v), k))
		}
	}
	if tail != np.tail {
		t.Fatalf("arena tail %d, segments end at %d", np.tail, tail)
	}
}

// profileGraphs covers both ways the segment capacity min(deg, k) binds:
// hubs far above k, and a mesh whose degrees sit below it.
func profileGraphs() []struct {
	name string
	g    *graph.Graph
	k    int32
} {
	ba := gen.BarabasiAlbert(600, 4, 3)
	ba.UseDegreeWeights()
	rmat := gen.RMAT(900, 7000, 0.57, 0.19, 0.19, 5)
	return []struct {
		name string
		g    *graph.Graph
		k    int32
	}{
		{"ba-k3", ba, 3},
		{"rmat-k70", rmat, 70},
		{"mesh-k9", gen.Mesh2D(20, 20), 9},
	}
}

func TestNeighborProfileBuildMatchesBruteForce(t *testing.T) {
	for _, tc := range profileGraphs() {
		t.Run(tc.name, func(t *testing.T) {
			p := randomPartitioning(tc.g, tc.k, rand.New(rand.NewSource(7)))
			np := mustProfile(t, tc.g, p.Assign, tc.k)
			checkSegments(t, tc.g, np, tc.k)
			for v := int32(0); v < tc.g.NumVertices(); v++ {
				for q := int32(0); q < tc.k; q++ {
					if got, want := np.Get(v, q), bruteProfile(tc.g, p.Assign, v, q); got != want {
						t.Fatalf("profile(%d,%d) = %d, want %d", v, q, got, want)
					}
				}
			}
		})
	}
}

// TestNeighborProfileWorkersAgree pins the parallel fill: segments are
// disjoint and every worker owns its accumulators, so the table must not
// depend on how [0, n) was split.
func TestNeighborProfileWorkersAgree(t *testing.T) {
	for _, tc := range profileGraphs() {
		t.Run(tc.name, func(t *testing.T) {
			p := randomPartitioning(tc.g, tc.k, rand.New(rand.NewSource(17)))
			want := mustProfile(t, tc.g, p.Assign, tc.k)
			for _, workers := range []int{2, 8} {
				got, err := BuildNeighborProfile(tc.g, p.Assign, tc.k, workers)
				if err != nil {
					t.Fatal(err)
				}
				checkSegments(t, tc.g, got, tc.k)
				for v := int32(0); v < tc.g.NumVertices(); v++ {
					gp, gw := got.Segment(v)
					wp, ww := want.Segment(v)
					if !slices.Equal(gp, wp) || !slices.Equal(gw, ww) {
						t.Fatalf("workers=%d: segment of %d = %v/%v, one worker says %v/%v", workers, v, gp, gw, wp, ww)
					}
				}
			}
		})
	}
}

// TestNeighborProfileMoveWalk replays a random sequence of vertex moves
// through MoveNeighbor — the scheduler's barrier patch — and after every
// step demands the exact table a from-scratch build produces, with no
// segment ever outgrowing its min(deg, k) capacity.
func TestNeighborProfileMoveWalk(t *testing.T) {
	for _, tc := range profileGraphs() {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			p := randomPartitioning(tc.g, tc.k, rng)
			np := mustProfile(t, tc.g, p.Assign, tc.k)
			for step := 0; step < 300; step++ {
				x := rng.Int31n(tc.g.NumVertices())
				old, to := p.Assign[x], rng.Int31n(tc.k)
				w := tc.g.EdgeWeights(x)
				for i, u := range tc.g.Neighbors(x) {
					np.MoveNeighbor(u, old, to, int64(w[i]))
				}
				p.Assign[x] = to
				checkSegments(t, tc.g, np, tc.k)
				want := mustProfile(t, tc.g, p.Assign, tc.k)
				for v := int32(0); v < tc.g.NumVertices(); v++ {
					gp, gw := np.Segment(v)
					wp, ww := want.Segment(v)
					if !slices.Equal(gp, wp) || !slices.Equal(gw, ww) {
						t.Fatalf("step %d (move %d: %d->%d): segment of %d = %v/%v, rebuild says %v/%v",
							step, x, old, to, v, gp, gw, wp, ww)
					}
				}
			}
		})
	}
}

// TestNeighborProfileInstalments is the sparse table's contract: a
// profile materialized in three random instalments — the movable mask of
// three rounds — with MoveNeighbor walks before, between and after them
// holds, for every materialized vertex, exactly the segment of a table
// built for all vertices over the final assignment, at every worker
// count; a vertex no instalment named has none. The last graph is large
// enough for the arena to span several chunks, with segments lying across
// the 2^s offsets between them.
func TestNeighborProfileInstalments(t *testing.T) {
	big := gen.RMAT(20000, 150000, 0.57, 0.19, 0.19, 23)
	big.UseDegreeWeights()
	graphs := append(profileGraphs(), struct {
		name string
		g    *graph.Graph
		k    int32
	}{"rmat-chunks-k40", big, 40})
	for _, tc := range graphs {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.g.NumVertices()
			for _, workers := range []int{1, 2, 8} {
				rng := rand.New(rand.NewSource(29))
				p := randomPartitioning(tc.g, tc.k, rng)
				np, err := NewNeighborProfile(tc.g, tc.k)
				if err != nil {
					t.Fatal(err)
				}
				walk := func() {
					for step := 0; step < 60; step++ {
						x := rng.Int31n(n)
						old, to := p.Assign[x], rng.Int31n(tc.k)
						w := tc.g.EdgeWeights(x)
						for i, u := range tc.g.Neighbors(x) {
							np.MoveNeighbor(u, old, to, int64(w[i]))
						}
						p.Assign[x] = to
					}
				}
				named := make([]bool, n)
				walk()
				for inst := 0; inst < 3; inst++ {
					// A third of the vertices each time, in random order,
					// half of them masked out.
					mask := NewBitset(n)
					vs := make([]int32, n/3)
					for i, x := range rng.Perm(int(n))[:n/3] {
						vs[i] = int32(x)
						if rng.Intn(2) == 0 {
							mask.Set(vs[i])
						}
					}
					for _, v := range vs {
						named[v] = named[v] || mask.Get(v)
					}
					np.Materialize(tc.g, p.Assign, mask, vs, workers)
					walk()
				}
				checkSegments(t, tc.g, np, tc.k)
				want := mustProfile(t, tc.g, p.Assign, tc.k)
				straddles := 0
				for v := int32(0); v < n; v++ {
					if np.Materialized(v) != named[v] {
						t.Fatalf("workers=%d: vertex %d materialized = %v, named under a set mask bit = %v", workers, v, np.Materialized(v), named[v])
					}
					if !named[v] {
						continue
					}
					gp, gw := np.Segment(v)
					wp, ww := want.Segment(v)
					if !slices.Equal(gp, wp) || !slices.Equal(gw, ww) {
						t.Fatalf("workers=%d: segment of %d = %v/%v, the full table says %v/%v", workers, v, gp, gw, wp, ww)
					}
					if lo := np.off[v] & (1<<profileChunkShift - 1); int(lo)+len(gp) > 1<<profileChunkShift {
						straddles++
					}
				}
				if tc.g == big && (len(np.chunks) < 3 || straddles == 0) {
					t.Fatalf("workers=%d: %d chunks, %d segments across a chunk offset; the chunked arena is not exercised", workers, len(np.chunks), straddles)
				}
			}
		})
	}
}

// TestNeighborProfileReadsAgree checks the three read paths against each
// other — Get, GetPair (both its linear and its binary-search leg) and
// the Segment walk the general-cost seeding uses.
func TestNeighborProfileReadsAgree(t *testing.T) {
	for _, tc := range profileGraphs() {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(13))
			p := randomPartitioning(tc.g, tc.k, rng)
			np := mustProfile(t, tc.g, p.Assign, tc.k)
			longest := 0
			for v := int32(0); v < tc.g.NumVertices(); v++ {
				parts, ws := np.Segment(v)
				longest = max(longest, len(parts))
				dense := make([]int64, tc.k)
				for i, q := range parts {
					dense[q] = ws[i]
				}
				for q := int32(0); q < tc.k; q++ {
					if got := np.Get(v, q); got != dense[q] {
						t.Fatalf("Get(%d,%d) = %d, segment walk says %d", v, q, got, dense[q])
					}
				}
				for i := 0; i < 8; i++ {
					a, b := rng.Int31n(tc.k), rng.Int31n(tc.k)
					if a == b {
						continue
					}
					if wa, wb := np.GetPair(v, a, b); wa != dense[a] || wb != dense[b] {
						t.Fatalf("GetPair(%d,%d,%d) = (%d,%d), want (%d,%d)", v, a, b, wa, wb, dense[a], dense[b])
					}
				}
			}
			if tc.k > 32 && longest <= 32 {
				t.Fatalf("longest segment has %d entries; GetPair's binary-search leg never ran", longest)
			}
		})
	}
}

// TestSegmentOffsetsOverflow feeds the size check a synthetic degree
// sequence whose full table would need 2³¹ entries: it must be refused
// with an error, not wrapped into negative int32 offsets.
// NewNeighborProfile runs the check before it allocates anything, and no
// chunk of parts/ws is allocated before the first Materialize, so the
// refusal is still the first thing a too-large Refine does.
func TestSegmentOffsetsOverflow(t *testing.T) {
	const n, k = 1 << 12, 1 << 20
	hub := func(int32) int32 { return 1 << 19 } // n·2¹⁹ = 2³¹, one past MaxInt32
	if _, err := segmentEntries(n, k, hub); err == nil || !strings.Contains(err.Error(), "2^31") {
		t.Fatalf("2^31-entry table: err = %v, want the overflow error", err)
	}
	// One vertex fewer fits, and k caps each segment.
	total, err := segmentEntries(n-1, k, hub)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(n-1) << 19; total != want {
		t.Fatalf("total = %d, want %d", total, want)
	}
	if total, err = segmentEntries(n, 8, hub); err != nil {
		t.Fatal(err)
	}
	if total != n*8 {
		t.Fatalf("k-capped layout: total %d, want %d", total, n*8)
	}
	np, err := NewNeighborProfile(gen.Mesh2D(4, 4), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(np.chunks) != 0 {
		t.Fatal("the entry arena is allocated before anything was materialized")
	}
}

// BenchmarkBuildNeighborProfile measures the all-vertices build (what a
// Refine pays when its mask admits every vertex), on a power-law graph at
// the churn workload's shape (avg degree 12, k = 32), at one worker and at
// GOMAXPROCS.
func BenchmarkBuildNeighborProfile(b *testing.B) {
	const k = 32
	g := gen.RMAT(200_000, 1_200_000, 0.57, 0.19, 0.19, 1)
	p := randomPartitioning(g, k, rand.New(rand.NewSource(1)))
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := BuildNeighborProfile(g, p.Assign, k, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
