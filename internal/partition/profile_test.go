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

// checkSegments asserts the layout invariants of every segment: within
// capacity min(deg, k), partitions strictly ascending, weights positive.
func checkSegments(t *testing.T, g *graph.Graph, np *NeighborProfile, k int32) {
	t.Helper()
	for v := int32(0); v < g.NumVertices(); v++ {
		if c := np.off[v+1] - np.off[v]; c != min(g.Degree(v), k) {
			t.Fatalf("v=%d: segment capacity %d, want min(deg=%d, k=%d)", v, c, g.Degree(v), k)
		}
		if np.end[v] < np.off[v] || np.end[v] > np.off[v+1] {
			t.Fatalf("v=%d: live end %d outside segment [%d, %d]", v, np.end[v], np.off[v], np.off[v+1])
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

// TestSegmentOffsetsOverflow feeds the layout a synthetic degree
// sequence whose table would need 2³¹ entries: it must be refused with
// an error, not wrapped into negative int32 offsets. BuildNeighborProfile
// lays the offsets out before it allocates the table or starts a worker,
// so the refusal is still the first thing a too-large build does.
func TestSegmentOffsetsOverflow(t *testing.T) {
	const n, k = 1 << 12, 1 << 20
	hub := func(int32) int32 { return 1 << 19 } // n·2¹⁹ = 2³¹, one past MaxInt32
	if _, err := segmentOffsets(n, k, hub); err == nil || !strings.Contains(err.Error(), "2^31") {
		t.Fatalf("2^31-entry table: err = %v, want the overflow error", err)
	}
	// One vertex fewer fits, and k caps each segment.
	off, err := segmentOffsets(n-1, k, hub)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := int64(off[n-1]), int64(n-1)<<19; got != want {
		t.Fatalf("total = %d, want %d", got, want)
	}
	if off, err = segmentOffsets(n, 8, hub); err != nil {
		t.Fatal(err)
	}
	if off[n] != n*8 {
		t.Fatalf("k-capped layout: total %d, want %d", off[n], n*8)
	}
}

// BenchmarkBuildNeighborProfile measures the rebuild every Refine call
// and every session epoch pays in newScheduler, on a power-law graph at
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
