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

// segmentDense is v's segment spread over all k partitions, zero where
// the segment has no entry.
func segmentDense(np *NeighborProfile, v, k int32) []int64 {
	dense := make([]int64, k)
	parts, ws, _ := np.Segment(v)
	for i, q := range parts {
		dense[q] = ws[i]
	}
	return dense
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
// segment: one header entry then min(deg, k) entry slots, the next segment
// starting right behind them, all inside the chunk the offset names; the
// header holds the live count — within capacity and equal to the distinct
// neighbor partitions a scan under assign finds — and g.VertexSize(v);
// partitions strictly ascending, weights positive.
func checkSegments(t *testing.T, g *graph.Graph, np *NeighborProfile, assign []int32, k int32) {
	t.Helper()
	var vs []int32
	for v := int32(0); v < g.NumVertices(); v++ {
		if !np.Materialized(v) {
			continue
		}
		vs = append(vs, v)
		c, h := np.header(np.off[v])
		touched := map[int32]bool{}
		for _, u := range g.Neighbors(v) {
			touched[assign[u]] = true
		}
		if live, capacity := c.parts[h], min(g.Degree(v), k); live > capacity || int(live) != len(touched) {
			t.Fatalf("v=%d: header says %d live entries; capacity %d, neighbors touch %d partitions", v, live, capacity, len(touched))
		}
		parts, ws, size := np.Segment(v)
		if size != c.ws[h] || size != int64(g.VertexSize(v)) {
			t.Fatalf("v=%d: header size %d, Segment says %d, the graph %d", v, c.ws[h], size, g.VertexSize(v))
		}
		if len(parts) != int(c.parts[h]) || len(ws) != len(parts) {
			t.Fatalf("v=%d: Segment returns %d/%d entries, header says %d", v, len(parts), len(ws), c.parts[h])
		}
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
			t.Fatalf("v=%d: header at %d, the segment before it ends at %d", v, np.off[v], tail)
		}
		slots := 1 + int(min(g.Degree(v), k))
		tail += int64(slots)
		c, h := np.header(np.off[v])
		if int(np.off[v]>>profileChunkShift) >= len(np.chunks) || h+slots > len(c.parts) || h+slots > len(c.ws) {
			t.Fatalf("v=%d: segment [%d, +%d) reaches past its chunk", v, np.off[v], slots)
		}
	}
	if tail != np.tail {
		t.Fatalf("arena tail %d, segments end at %d", np.tail, tail)
	}
}

// checkBatchOrder asserts the order one Materialize call lays its
// segments out in: those at or behind from, the arena tail before the
// call, ascend by (owner under the assign of the call, vertex id).
func checkBatchOrder(t *testing.T, np *NeighborProfile, assign []int32, from int64) {
	t.Helper()
	var batch []int32
	for v, off := range np.off {
		if int64(off) >= from {
			batch = append(batch, int32(v))
		}
	}
	slices.SortFunc(batch, func(a, b int32) int { return int(np.off[a]) - int(np.off[b]) })
	for i := 1; i < len(batch); i++ {
		a, b := batch[i-1], batch[i]
		if assign[a] > assign[b] || (assign[a] == assign[b] && a > b) {
			t.Fatalf("batch from offset %d: vertex %d (owner %d) lies before vertex %d (owner %d)", from, a, assign[a], b, assign[b])
		}
	}
}

// checkSameSegment asserts that got and want hold the same segment of v.
func checkSameSegment(t *testing.T, got, want *NeighborProfile, v int32, when string) {
	t.Helper()
	gp, gw, gs := got.Segment(v)
	wp, ww, ws := want.Segment(v)
	if !slices.Equal(gp, wp) || !slices.Equal(gw, ww) || gs != ws {
		t.Fatalf("%s: segment of %d = %v/%v size %d, want %v/%v size %d", when, v, gp, gw, gs, wp, ww, ws)
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
			checkSegments(t, tc.g, np, p.Assign, tc.k)
			checkBatchOrder(t, np, p.Assign, 0)
			for v := int32(0); v < tc.g.NumVertices(); v++ {
				dense := segmentDense(np, v, tc.k)
				for q := int32(0); q < tc.k; q++ {
					if want := bruteProfile(tc.g, p.Assign, v, q); dense[q] != want {
						t.Fatalf("profile(%d,%d) = %d, want %d", v, q, dense[q], want)
					}
				}
			}
		})
	}
}

// instalments materializes a profile of g in three random instalments —
// the movable mask of three rounds: a third of the vertices each, in
// random order, half of them masked out — with MoveNeighbor walks before,
// between and after them, everything drawn from one fixed seed. It returns
// the profile, the final assignment and which vertices an instalment
// named under a set mask bit.
func instalments(t *testing.T, g *graph.Graph, k int32, workers int) (*NeighborProfile, []int32, []bool) {
	t.Helper()
	n := g.NumVertices()
	rng := rand.New(rand.NewSource(29))
	p := randomPartitioning(g, k, rng)
	np, err := NewNeighborProfile(g, k)
	if err != nil {
		t.Fatal(err)
	}
	walk := func() {
		for step := 0; step < 60; step++ {
			x := rng.Int31n(n)
			old, to := p.Assign[x], rng.Int31n(k)
			w := g.EdgeWeights(x)
			for i, u := range g.Neighbors(x) {
				np.MoveNeighbor(u, old, to, int64(w[i]))
			}
			p.Assign[x] = to
		}
	}
	named := make([]bool, n)
	walk()
	for inst := 0; inst < 3; inst++ {
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
		before := np.tail
		np.Materialize(g, p.Assign, mask, vs, workers)
		checkBatchOrder(t, np, p.Assign, before)
		walk()
	}
	checkSegments(t, g, np, p.Assign, k)
	return np, p.Assign, named
}

// TestNeighborProfileWorkersAgree pins the parallel fill: the layout is
// serial, segments are disjoint and every worker owns its accumulators,
// so after three instalments interleaved with MoveNeighbor walks the
// table — offsets and every byte of the arena — must not depend on how
// each instalment was split.
func TestNeighborProfileWorkersAgree(t *testing.T) {
	for _, tc := range profileGraphs() {
		t.Run(tc.name, func(t *testing.T) {
			want, _, _ := instalments(t, tc.g, tc.k, 1)
			for _, workers := range []int{2, 8} {
				got, _, _ := instalments(t, tc.g, tc.k, workers)
				requireSameTable(t, got, want, fmt.Sprintf("workers=%d", workers))
			}
		})
	}
}

// requireSameTable demands the same offsets, tail and arena bytes.
func requireSameTable(t *testing.T, got, want *NeighborProfile, what string) {
	t.Helper()
	if !slices.Equal(got.off, want.off) || got.tail != want.tail || len(got.chunks) != len(want.chunks) {
		t.Fatalf("%s: offsets, tail %d or chunk count %d differ from the reference's (%d, %d)", what, got.tail, len(got.chunks), want.tail, len(want.chunks))
	}
	for c := range want.chunks {
		if !slices.Equal(got.chunks[c].parts, want.chunks[c].parts) || !slices.Equal(got.chunks[c].ws, want.chunks[c].ws) {
			t.Fatalf("%s: chunk %d differs from the reference's", what, c)
		}
	}
}

// TestNeighborProfileRepeatedIDs: a vertex listed more than once gets one
// segment, and the table is the one the same call builds from the list
// without the repeats — for a list in any order and an ascending one, at
// one worker and at two.
func TestNeighborProfileRepeatedIDs(t *testing.T) {
	for _, tc := range profileGraphs() {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(31))
			p := randomPartitioning(tc.g, tc.k, rng)
			var distinct, repeated []int32
			for v := int32(0); v < tc.g.NumVertices(); v++ {
				if rng.Intn(3) == 0 {
					distinct = append(distinct, v)
					for r := rng.Intn(3); r >= 0; r-- {
						repeated = append(repeated, v)
					}
				}
			}
			shuffled := slices.Clone(repeated)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			for _, workers := range []int{1, 2} {
				build := func(vs []int32) *NeighborProfile {
					np, err := NewNeighborProfile(tc.g, tc.k)
					if err != nil {
						t.Fatal(err)
					}
					np.Materialize(tc.g, p.Assign, nil, vs, workers)
					return np
				}
				want := build(distinct)
				checkSegments(t, tc.g, want, p.Assign, tc.k)
				requireSameTable(t, build(repeated), want, fmt.Sprintf("ascending, workers=%d", workers))
				requireSameTable(t, build(shuffled), want, fmt.Sprintf("shuffled, workers=%d", workers))
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
				checkSegments(t, tc.g, np, p.Assign, tc.k)
				want := mustProfile(t, tc.g, p.Assign, tc.k)
				for v := int32(0); v < tc.g.NumVertices(); v++ {
					checkSameSegment(t, np, want, v, fmt.Sprintf("step %d (move %d: %d->%d)", step, x, old, to))
				}
			}
		})
	}
}

// TestNeighborProfileInstalments is the sparse table's contract: a
// profile materialized in instalments holds, for every materialized
// vertex, exactly the segment of a table built for all vertices over the
// final assignment, at every worker count; a vertex no instalment named
// has none. The last graph is large enough for the arena to span several
// chunks, with segments lying across the 2^s offsets between them.
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
			for _, workers := range []int{1, 2, 8} {
				np, assign, named := instalments(t, tc.g, tc.k, workers)
				want := mustProfile(t, tc.g, assign, tc.k)
				straddles := 0
				for v := int32(0); v < tc.g.NumVertices(); v++ {
					if np.Materialized(v) != named[v] {
						t.Fatalf("workers=%d: vertex %d materialized = %v, named under a set mask bit = %v", workers, v, np.Materialized(v), named[v])
					}
					if !named[v] {
						continue
					}
					checkSameSegment(t, np, want, v, fmt.Sprintf("workers=%d", workers))
					if _, h := np.header(np.off[v]); h+1+int(min(tc.g.Degree(v), tc.k)) > 1<<profileChunkShift {
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

// TestNeighborProfileReadsAgree checks the two read paths against each
// other and against the definition: Segment(v), and SegmentAt over offsets
// gathered for every vertex up front, the way the pair kernel reads them.
// The offsets are gathered before a walk of MoveNeighbor patches, which
// insert and remove entries in place and so must leave every offset valid.
func TestNeighborProfileReadsAgree(t *testing.T) {
	for _, tc := range profileGraphs() {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(13))
			p := randomPartitioning(tc.g, tc.k, rng)
			np := mustProfile(t, tc.g, p.Assign, tc.k)
			n := tc.g.NumVertices()
			offs := make([]int32, n)
			for v := range offs {
				offs[v] = np.Offset(int32(v))
			}
			for i := 0; i < int(n)/4; i++ {
				x, to := rng.Int31n(n), rng.Int31n(tc.k)
				w := tc.g.EdgeWeights(x)
				for j, u := range tc.g.Neighbors(x) {
					np.MoveNeighbor(u, p.Assign[x], to, int64(w[j]))
				}
				p.Assign[x] = to
			}
			for v := int32(0); v < n; v++ {
				parts, ws, size := np.SegmentAt(offs[v])
				sp, sw, ss := np.Segment(v)
				if !slices.Equal(parts, sp) || !slices.Equal(ws, sw) || size != ss {
					t.Fatalf("v=%d: SegmentAt(gathered offset) = %v/%v size %d, Segment = %v/%v size %d", v, parts, ws, size, sp, sw, ss)
				}
				dense := segmentDense(np, v, tc.k)
				for q := int32(0); q < tc.k; q++ {
					if want := bruteProfile(tc.g, p.Assign, v, q); dense[q] != want {
						t.Fatalf("v=%d: segment holds %d for partition %d, want %d", v, dense[q], q, want)
					}
				}
			}
		})
	}
}

// TestSegmentOffsetsOverflow feeds the size check a synthetic degree
// sequence whose full table, headers included, would need 2³¹ offsets: it
// must be refused with an error, not wrapped into negative int32 offsets.
// NewNeighborProfile runs the check before it allocates anything — shown
// on a real graph under a lowered limit — and no chunk of parts/ws is
// allocated before the first Materialize, so the refusal is still the
// first thing a too-large Refine does (TestRefineRefusesOversizedProfile
// reaches it through paragon.Refine).
func TestSegmentOffsetsOverflow(t *testing.T) {
	const n, k = 1 << 12, 1 << 20
	hub := func(int32) int32 { return 1<<19 - 1 } // n·(2¹⁹−1+1) = 2³¹, one past MaxInt32
	if _, err := segmentEntries(n, k, hub); err == nil || !strings.Contains(err.Error(), "2^31") {
		t.Fatalf("2^31-entry table: err = %v, want the overflow error", err)
	}
	// One vertex fewer fits, and k caps each segment's entries.
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
	if total != n*(8+1) {
		t.Fatalf("k-capped layout: total %d, want %d", total, n*(8+1))
	}
	mesh := gen.Mesh2D(4, 4)
	need, err := segmentEntries(mesh.NumVertices(), 3, mesh.Degree)
	if err != nil {
		t.Fatal(err)
	}
	defer SetMaxProfileEntries(need - 1)()
	if np, err := NewNeighborProfile(mesh, 3); err == nil || np != nil {
		t.Fatalf("a table of %d offsets under a limit of %d: profile %v, err %v; want the refusal and nothing allocated", need, need-1, np, err)
	}
	SetMaxProfileEntries(need)
	np, err := BuildNeighborProfile(mesh, make([]int32, mesh.NumVertices()), 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if np.tail != need {
		t.Fatalf("the full table ends at offset %d, the size check counted %d", np.tail, need)
	}
	if np, err = NewNeighborProfile(mesh, 3); err != nil {
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
