package stream

import (
	"hash/fnv"
	"testing"

	"paragon/internal/gen"
	"paragon/internal/graph"
	"paragon/internal/partition"
)

// assignHash folds an assignment into one FNV-1a word for golden pinning.
func assignHash(p *partition.Partitioning) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, a := range p.Assign {
		buf[0] = byte(a)
		buf[1] = byte(a >> 8)
		buf[2] = byte(a >> 16)
		buf[3] = byte(a >> 24)
		h.Write(buf[:])
	}
	return h.Sum64()
}

// The streaming partitioners feed both the batch pipeline and the
// daemon's arrival placement, so their output for a fixed (graph, k,
// options) is pinned here — any change to the placement rules must
// re-pin deliberately instead of shifting silently. (METIS, the other
// initial partitioner, is pinned by internal/metis's TestPartitionGoldens.)
func TestStreamPartitionerGoldens(t *testing.T) {
	g := gen.RMAT(2000, 10000, 0.57, 0.19, 0.19, 8)
	opt := DefaultOptions()
	cases := []struct {
		name string
		got  uint64
		want uint64
	}{
		{"dg", assignHash(DG(g, 8, opt)), 0x291214702a71cde6},
		{"ldg", assignHash(LDG(g, 8, opt)), 0x61ddba28a4aeb571},
		{"fennel", assignHash(Fennel(g, 8, opt)), 0x44c85c402ea64c20},
		{"hp", assignHash(HP(g, 8)), 0xd1ac061190dba633},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s assignment hash = %#x, want %#x", c.name, c.got, c.want)
		}
	}
}

// Scaling every edge weight by a constant scales every DG and LDG score
// by it, so an exact integer placer must place every vertex as before.
func TestGreedyInvariantUnderEdgeWeightScaling(t *testing.T) {
	g := gen.RMAT(2000, 10000, 0.57, 0.19, 0.19, 8)
	vw, vs := make([]int32, g.NumVertices()), make([]int32, g.NumVertices())
	for v := range vw {
		vw[v], vs[v] = g.VertexWeight(int32(v)), g.VertexSize(int32(v))
	}
	g3 := graph.FromSymmetricRows(g.NumVertices(), vw, vs, g.Degree, func(v int32, to, w []int32) {
		copy(to, g.Neighbors(v))
		for i, x := range g.EdgeWeights(v) {
			w[i] = 3 * x
		}
	}, 1)
	if g3.TotalEdgeWeight() != 3*g.TotalEdgeWeight() {
		t.Fatalf("scaled graph has edge weight %d, want %d", g3.TotalEdgeWeight(), 3*g.TotalEdgeWeight())
	}
	opt := DefaultOptions()
	for _, run := range []struct {
		name string
		part func(*graph.Graph, int32, Options) *partition.Partitioning
	}{{"dg", DG}, {"ldg", LDG}} {
		p, p3 := run.part(g, 8, opt), run.part(g3, 8, opt)
		for v := range p.Assign {
			if p.Assign[v] != p3.Assign[v] {
				t.Fatalf("%s: vertex %d placed on %d, on %d with edge weights ×3", run.name, v, p.Assign[v], p3.Assign[v])
			}
		}
	}
}

// Placement is deterministic run to run and identical between the batch
// partitioner and a fresh Placer fed the same arrival order — the
// property the daemon's replay contract rests on.
func TestPlacerMatchesBatchPartitioner(t *testing.T) {
	g := gen.RMAT(1500, 7000, 0.57, 0.19, 0.19, 4)
	const k = 6
	opt := DefaultOptions()
	capacity := partition.BalanceBound(g, k, opt.Eps)
	for _, c := range []struct {
		rule    PlaceRule
		batch   func(*graph.Graph, int32, Options) *partition.Partitioning
		penalty int64
	}{
		{PlaceDG, DG, 0},
		{PlaceLDG, LDG, 0},
		{PlaceFennel, Fennel, FennelPenalty(k, g.TotalEdgeWeight(), g.TotalVertexWeight())},
	} {
		t.Run(c.rule.String(), func(t *testing.T) {
			want := c.batch(g, k, opt)
			pl := NewPlacer(c.rule, k)
			load := make([]int64, k)
			p := partition.New(k, g.NumVertices())
			for i := range p.Assign {
				p.Assign[i] = -1
			}
			for v := int32(0); v < g.NumVertices(); v++ { // natural order, as opt
				vw := int64(g.VertexWeight(v))
				best := pl.Place(g.Neighbors(v), g.EdgeWeights(v), p.Assign, load, vw, capacity, c.penalty)
				p.Assign[v] = best
				load[best] += vw
			}
			for v := range p.Assign {
				if p.Assign[v] != want.Assign[v] {
					t.Fatalf("vertex %d: placer chose %d, batch %s chose %d", v, p.Assign[v], c.rule, want.Assign[v])
				}
			}
		})
	}
}

// Exact ties break to the lower load under every rule. The Fennel rows
// are the fennel.go:57 regression (a tie against the first candidate
// scored used to stick with the earlier partition); the LDG row is an
// exact tie, 3·(5−3) = 2·(5−2), that float scores broke by rounding
// (3·(1−3/5) = 1.2000000000000002 > 2·(1−2/5) = 1.2) towards partition 0.
func TestPlaceTieBreaksToLowerLoad(t *testing.T) {
	for _, c := range []struct {
		name     string
		rule     PlaceRule
		adj, wts []int32
		assign   []int32
		load     []int64
		capacity int64
		want     int32
	}{
		// penalty 0 makes every empty-affinity score 0: a three-way tie.
		{"fennel/empty", PlaceFennel, nil, nil, nil, []int64{5, 2, 4}, 100, 1},
		// Equal affinity toward partitions 0 and 2: the tie again breaks
		// to the lower load even though partition 0 is scored first.
		{"fennel/affinity", PlaceFennel, []int32{0, 1}, []int32{2, 2}, []int32{0, 2}, []int64{7, 9, 3}, 100, 2},
		{"ldg/exact", PlaceLDG, []int32{0, 1}, []int32{3, 2}, []int32{0, 1}, []int64{3, 2}, 5, 1},
	} {
		pl := NewPlacer(c.rule, int32(len(c.load)))
		if got := pl.Place(c.adj, c.wts, c.assign, c.load, 1, c.capacity, 0); got != c.want {
			t.Errorf("%s: tie placed on %d, want lower-load %d", c.name, got, c.want)
		}
	}
}

func TestPlaceGreedyFallbackLeastLoaded(t *testing.T) {
	pl := NewPlacer(PlaceDG, 4)
	load := []int64{3, 1, 2, 1}
	// No placed neighbors: DG falls back to least loaded, lowest index.
	if got := pl.Place(nil, nil, nil, load, 1, 10, 0); got != 1 {
		t.Fatalf("fallback placed on %d, want 1", got)
	}
	// All candidates over capacity: same fallback.
	adj := []int32{0}
	wts := []int32{5}
	assign := []int32{0}
	if got := pl.Place(adj, wts, assign, load, 8, 10, 0); got != 1 {
		t.Fatalf("over-capacity fallback placed on %d, want 1", got)
	}
}

// The touched-list reset must leave no residue between calls: two
// placements with disjoint neighborhoods see independent affinities.
func TestPlacerScratchReset(t *testing.T) {
	pl := NewPlacer(PlaceDG, 4)
	load := make([]int64, 4)
	assign := []int32{3, 2}
	if got := pl.Place([]int32{0}, []int32{9}, assign, load, 1, 100, 0); got != 3 {
		t.Fatalf("first placement on %d, want 3", got)
	}
	load[3]++
	// If aff[3] leaked, this would still pick 3 over 2.
	if got := pl.Place([]int32{1}, []int32{5}, assign, load, 1, 100, 0); got != 2 {
		t.Fatalf("second placement on %d, want 2 (scratch residue?)", got)
	}
}
