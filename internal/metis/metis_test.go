package metis

import (
	"math/rand"
	"testing"
	"testing/quick"

	"paragon/internal/gen"
	"paragon/internal/graph"
	"paragon/internal/partition"
	"paragon/internal/stream"
)

func TestHeavyEdgeMatchingValid(t *testing.T) {
	g := gen.ErdosRenyi(200, 600, 1)
	rng := rand.New(rand.NewSource(2))
	m := heavyEdgeMatching(g, rng)
	for v := int32(0); v < g.NumVertices(); v++ {
		u := m[v]
		if u < 0 || u >= g.NumVertices() {
			t.Fatalf("match[%d] = %d out of range", v, u)
		}
		if m[u] != v {
			t.Fatalf("matching not symmetric: m[%d]=%d but m[%d]=%d", v, u, u, m[u])
		}
		if u != v && !g.HasEdge(u, v) {
			t.Fatalf("matched non-adjacent pair %d-%d", v, u)
		}
	}
}

func TestHeavyEdgeMatchingPrefersHeavy(t *testing.T) {
	// Star with one heavy edge: center must match across the heavy edge.
	b := graph.NewBuilder(4)
	b.AddWeightedEdge(0, 1, 1)
	b.AddWeightedEdge(0, 2, 100)
	b.AddWeightedEdge(0, 3, 1)
	g := b.Build()
	// The random visit order can start anywhere; when it starts at 0 the
	// heavy edge must win. Force it by matching many seeds.
	heavyWins := 0
	for seed := int64(0); seed < 10; seed++ {
		m := heavyEdgeMatching(g, rand.New(rand.NewSource(seed)))
		if m[0] == 2 {
			heavyWins++
		}
	}
	if heavyWins == 0 {
		t.Fatal("heavy edge never matched across 10 seeds")
	}
}

func TestContractConservesWeight(t *testing.T) {
	g := gen.Mesh2D(20, 20)
	g.UseDegreeWeights()
	rng := rand.New(rand.NewSource(3))
	m := heavyEdgeMatching(g, rng)
	coarse, cmap := contract(g, m)
	if coarse.TotalVertexWeight() != g.TotalVertexWeight() {
		t.Fatalf("vertex weight not conserved: %d vs %d", coarse.TotalVertexWeight(), g.TotalVertexWeight())
	}
	if coarse.NumVertices() >= g.NumVertices() {
		t.Fatal("contraction did not shrink the graph")
	}
	if err := coarse.Validate(); err != nil {
		t.Fatalf("coarse graph invalid: %v", err)
	}
	for v := int32(0); v < g.NumVertices(); v++ {
		if cmap[v] < 0 || cmap[v] >= coarse.NumVertices() {
			t.Fatalf("cmap[%d] = %d out of range", v, cmap[v])
		}
	}
	// Edge weight: coarse total = fine total − weight of internal
	// (contracted) edges.
	var internal int64
	for v := int32(0); v < g.NumVertices(); v++ {
		adj := g.Neighbors(v)
		w := g.EdgeWeights(v)
		for i, u := range adj {
			if v < u && cmap[v] == cmap[u] {
				internal += int64(w[i])
			}
		}
	}
	if coarse.TotalEdgeWeight() != g.TotalEdgeWeight()-internal {
		t.Fatalf("edge weight mismatch: coarse %d, fine %d, internal %d",
			coarse.TotalEdgeWeight(), g.TotalEdgeWeight(), internal)
	}
}

func TestCoarsenHierarchy(t *testing.T) {
	g := gen.Mesh2D(40, 40)
	rng := rand.New(rand.NewSource(4))
	levels := coarsen(g, 100, rng)
	if len(levels) < 2 {
		t.Fatal("expected multiple levels for a 1600-vertex mesh")
	}
	if levels[0].g != g {
		t.Fatal("first level must be the input graph")
	}
	for i := 1; i < len(levels); i++ {
		if levels[i].g.NumVertices() >= levels[i-1].g.NumVertices() {
			t.Fatalf("level %d did not shrink", i)
		}
		if levels[i].g.TotalVertexWeight() != g.TotalVertexWeight() {
			t.Fatalf("level %d lost vertex weight", i)
		}
	}
	last := levels[len(levels)-1].g
	if last.NumVertices() > 200 {
		t.Fatalf("coarsest graph still has %d vertices", last.NumVertices())
	}
}

// TestGainHeap checks the heap FM keeps its boundary moves in: gains pop
// in descending order, and an entry whose gain went stale is skipped.
func TestGainHeap(t *testing.T) {
	h := &partition.GainHeap{}
	gains := []int64{5, -2, 9, 0, 9, 3}
	for v, g := range gains {
		h.Push(int32(v), g)
	}
	locked := make([]bool, len(gains))
	gainArr := append([]int64(nil), gains...)
	var popped []int64
	for {
		_, g, ok := h.PopValid(gainArr, locked)
		if !ok {
			break
		}
		popped = append(popped, g)
	}
	for i := 1; i < len(popped); i++ {
		if popped[i] > popped[i-1] {
			t.Fatalf("heap not descending: %v", popped)
		}
	}
	if len(popped) != len(gains) {
		t.Fatalf("popped %d of %d", len(popped), len(gains))
	}
	// Stale entries are skipped.
	h2 := &partition.GainHeap{}
	h2.Push(0, 7)
	gainArr2 := []int64{3} // heap entry (0,7) is stale
	h2.Push(0, 3)
	v, g, ok := h2.PopValid(gainArr2, []bool{false})
	if !ok || v != 0 || g != 3 {
		t.Fatalf("stale skip failed: %d %d %v", v, g, ok)
	}
}

func TestFMImprovesRandomBisection(t *testing.T) {
	g := gen.Mesh2D(30, 30)
	rng := rand.New(rand.NewSource(5))
	side := make([]int8, g.NumVertices())
	for v := range side {
		side[v] = int8(rng.Intn(2))
	}
	before := cutWeight(g, side)
	total := g.TotalVertexWeight()
	maxW := [2]int64{int64(float64(total) * 0.55), int64(float64(total) * 0.55)}
	bnd := partition.NewBitset(g.NumVertices())
	for v := int32(0); v < g.NumVertices(); v++ {
		bnd.Set(v)
	}
	fmRefine(g, side, bnd, maxW, 8)
	after := cutWeight(g, side)
	if after >= before {
		t.Fatalf("FM did not improve cut: %d -> %d", before, after)
	}
	w := sideWeights(g, side)
	if w[0] > maxW[0] || w[1] > maxW[1] {
		t.Fatalf("FM violated balance: %v vs %v", w, maxW)
	}
	// A mesh bisection should be far below a random cut (~half the edges).
	if after > before/2 {
		t.Fatalf("FM cut %d still above half the random cut %d", after, before)
	}
}

func TestPartitionBasic(t *testing.T) {
	g := gen.Mesh2D(32, 32)
	p := Partition(g, 8, Options{Seed: 1})
	if err := p.Validate(g); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	counts := p.Counts(g)
	for i, c := range counts {
		if c == 0 {
			t.Fatalf("partition %d empty", i)
		}
	}
	if s := partition.Skewness(g, p); s > 1.35 {
		t.Fatalf("skewness %.3f too high", s)
	}
}

func TestPartitionK1(t *testing.T) {
	g := gen.ErdosRenyi(50, 100, 1)
	p := Partition(g, 1, Options{})
	for _, a := range p.Assign {
		if a != 0 {
			t.Fatal("k=1 must assign all to 0")
		}
	}
}

func TestPartitionOddK(t *testing.T) {
	g := gen.Mesh2D(30, 30)
	for _, k := range []int32{3, 5, 7, 11} {
		p := Partition(g, k, Options{Seed: 2})
		if err := p.Validate(g); err != nil {
			t.Fatalf("k=%d Validate: %v", k, err)
		}
		for i, c := range p.Counts(g) {
			if c == 0 {
				t.Fatalf("k=%d partition %d empty", k, i)
			}
		}
		if s := partition.Skewness(g, p); s > 1.5 {
			t.Fatalf("k=%d skewness %.3f", k, s)
		}
	}
}

func TestMETISBeatsStreamingOnMesh(t *testing.T) {
	// The Figure 9 headline: METIS produces the best initial cuts,
	// especially on FEM-style meshes.
	g := gen.Mesh2D(40, 40)
	g.UseDegreeWeights()
	mp := Partition(g, 8, Options{Seed: 3})
	dg := stream.DG(g, 8, stream.DefaultOptions())
	hp := stream.HP(g, 8)
	cutM := partition.EdgeCut(g, mp)
	cutD := partition.EdgeCut(g, dg)
	cutH := partition.EdgeCut(g, hp)
	if cutM >= cutD {
		t.Fatalf("METIS cut %d not below DG cut %d", cutM, cutD)
	}
	if cutD >= cutH {
		t.Fatalf("DG cut %d not below HP cut %d", cutD, cutH)
	}
}

func TestPartitionWeightedGraph(t *testing.T) {
	g := gen.RMAT(3000, 12000, 0.57, 0.19, 0.19, 6)
	g.UseDegreeWeights()
	p := Partition(g, 6, Options{Seed: 4, Eps: 0.05})
	if err := p.Validate(g); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Power-law graphs are hard to balance exactly under recursive
	// bisection; require the tolerance band (with slack for the heavy
	// hub vertices).
	if s := partition.Skewness(g, p); s > 1.6 {
		t.Fatalf("weighted skewness %.3f", s)
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := gen.Mesh2D(8, 8)
	g.UseDegreeWeights()
	verts := []int32{0, 1, 2, 8, 9, 10}
	sub, orig := graph.Induced(g, verts)
	if sub.NumVertices() != 6 {
		t.Fatalf("sub vertices = %d", sub.NumVertices())
	}
	if len(orig) != 6 || orig[3] != 8 {
		t.Fatalf("orig mapping = %v", orig)
	}
	if err := sub.Validate(); err != nil {
		t.Fatalf("sub invalid: %v", err)
	}
	for i, v := range orig {
		if sub.VertexWeight(int32(i)) != g.VertexWeight(v) {
			t.Fatalf("vertex weight not carried for %d", v)
		}
	}
	// Every sub edge must exist in g between the mapped endpoints.
	for i := int32(0); i < sub.NumVertices(); i++ {
		for _, j := range sub.Neighbors(i) {
			if !g.HasEdge(orig[i], orig[j]) {
				t.Fatalf("phantom edge %d-%d", orig[i], orig[j])
			}
		}
	}
}

func TestPartitionDeterministic(t *testing.T) {
	g := gen.Mesh2D(20, 20)
	p1 := Partition(g, 4, Options{Seed: 11})
	p2 := Partition(g, 4, Options{Seed: 11})
	for v := range p1.Assign {
		if p1.Assign[v] != p2.Assign[v] {
			t.Fatal("same seed must give identical partitionings")
		}
	}
}

// Property: Partition always yields a valid, complete decomposition with
// bounded skew for arbitrary graphs and k.
func TestQuickPartitionValid(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		k := int32(kRaw%7) + 2
		g := gen.ErdosRenyi(400, 1200, seed)
		p := Partition(g, k, Options{Seed: seed})
		if err := p.Validate(g); err != nil {
			t.Logf("invalid: %v", err)
			return false
		}
		var total int64
		for _, c := range p.Counts(g) {
			total += c
		}
		return total == int64(g.NumVertices())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// Every coarse graph contract builds — the hierarchy each of Partition's
// bisections coarsens through — carries cached totals equal to a recount:
// contraction conserves vertex weight and size and drops the weight of the
// edges it collapses.
func TestContractTotalsMatchRecount(t *testing.T) {
	g := gen.RMAT(3000, 20000, 0.57, 0.19, 0.19, 4)
	g.UseDegreeWeights()
	levels := coarsen(g, coarsenTo, rand.New(rand.NewSource(5)))
	if len(levels) < 3 {
		t.Fatalf("%d levels; the test wants at least two contractions", len(levels))
	}
	for li, l := range levels {
		var ew, vw, vs int64
		for v := int32(0); v < l.g.NumVertices(); v++ {
			for _, w := range l.g.EdgeWeights(v) {
				ew += int64(w)
			}
			vw += int64(l.g.VertexWeight(v))
			vs += int64(l.g.VertexSize(v))
		}
		got := [3]int64{l.g.TotalEdgeWeight(), l.g.TotalVertexWeight(), l.g.TotalVertexSize()}
		if want := [3]int64{ew / 2, vw, vs}; got != want {
			t.Fatalf("level %d: totals (edge, vertex weight, vertex size) = %v, recount %v", li, got, want)
		}
		if vw != g.TotalVertexWeight() || vs != g.TotalVertexSize() {
			t.Fatalf("level %d: vertex weight %d and size %d, the input's %d and %d", li, vw, vs, g.TotalVertexWeight(), g.TotalVertexSize())
		}
	}
}
