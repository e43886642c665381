package graph

import (
	"bytes"
	"errors"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
)

// buildPath returns the path graph 0-1-2-...-(n-1) with unit weights.
func buildPath(n int32) *Graph {
	b := NewBuilder(n)
	for v := int32(0); v+1 < n; v++ {
		b.AddEdge(v, v+1)
	}
	return b.Build()
}

// buildPaperGraph returns the 10-vertex graph of Figures 3–5 of the paper.
// Vertices: a=0 b=1 c=2 d=3 e=4 f=5 g=6 h=7 i=8 j=9.
func buildPaperGraph() *Graph {
	b := NewBuilder(10)
	edges := [][2]int32{
		{0, 1}, {0, 2}, {0, 9}, // a-b, a-c, a-j
		{1, 2}, {1, 3}, // b-c, b-d
		{2, 3},         // c-d
		{3, 4},         // d-e
		{4, 5}, {4, 6}, // e-f, e-g
		{5, 6},                 // f-g
		{7, 8}, {7, 9}, {8, 9}, // h-i, h-j, i-j
	}
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

func TestEmptyGraph(t *testing.T) {
	var g Graph
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph reports %d vertices %d edges", g.NumVertices(), g.NumEdges())
	}
	b := NewBuilder(0)
	g2 := b.Build()
	if g2.NumVertices() != 0 {
		t.Fatalf("zero builder produced %d vertices", g2.NumVertices())
	}
	if err := g2.Validate(); err != nil {
		t.Fatalf("empty graph invalid: %v", err)
	}
}

func TestBuilderBasic(t *testing.T) {
	g := buildPath(5)
	if g.NumVertices() != 5 {
		t.Fatalf("NumVertices = %d, want 5", g.NumVertices())
	}
	if g.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d, want 4", g.NumEdges())
	}
	if g.Degree(0) != 1 || g.Degree(2) != 2 || g.Degree(4) != 1 {
		t.Fatalf("unexpected degrees: %d %d %d", g.Degree(0), g.Degree(2), g.Degree(4))
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestBuilderMergesDuplicates(t *testing.T) {
	b := NewBuilder(3)
	b.AddWeightedEdge(0, 1, 2)
	b.AddWeightedEdge(1, 0, 3) // same undirected edge, reversed
	b.AddEdge(1, 2)
	g := b.Build()
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2 after merging", g.NumEdges())
	}
	if w := g.EdgeWeightBetween(0, 1); w != 5 {
		t.Fatalf("merged weight = %d, want 5", w)
	}
	if w := g.EdgeWeightBetween(1, 0); w != 5 {
		t.Fatalf("reverse merged weight = %d, want 5", w)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestBuilderDropsSelfLoops(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 0)
	b.AddEdge(0, 1)
	g := b.Build()
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
}

func TestBuilderPanicsOnBadEdge(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range edge")
		}
	}()
	NewBuilder(2).AddEdge(0, 5)
}

func TestBuilderPanicsOnBadWeight(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-positive weight")
		}
	}()
	NewBuilder(2).AddWeightedEdge(0, 1, 0)
}

func TestNeighborsSortedAndSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := NewBuilder(50)
	for i := 0; i < 300; i++ {
		u, v := int32(rng.Intn(50)), int32(rng.Intn(50))
		if u != v {
			b.AddWeightedEdge(u, v, int32(rng.Intn(9)+1))
		}
	}
	g := b.Build()
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	for v := int32(0); v < g.NumVertices(); v++ {
		adj := g.Neighbors(v)
		for i := 1; i < len(adj); i++ {
			if adj[i-1] >= adj[i] {
				t.Fatalf("adjacency of %d not strictly sorted", v)
			}
		}
	}
}

func TestEdgeWeightBetween(t *testing.T) {
	g := buildPaperGraph()
	if w := g.EdgeWeightBetween(0, 9); w != 1 {
		t.Fatalf("a-j weight = %d, want 1", w)
	}
	if w := g.EdgeWeightBetween(0, 5); w != 0 {
		t.Fatalf("a-f weight = %d, want 0 (no edge)", w)
	}
	if !g.HasEdge(7, 8) || g.HasEdge(0, 4) {
		t.Fatal("HasEdge mismatch")
	}
}

func TestUseDegreeWeights(t *testing.T) {
	g := buildPaperGraph()
	g.UseDegreeWeights()
	for v := int32(0); v < g.NumVertices(); v++ {
		want := g.Degree(v)
		if want < 1 {
			want = 1
		}
		if g.VertexWeight(v) != want || g.VertexSize(v) != want {
			t.Fatalf("vertex %d: weight %d size %d, want %d", v, g.VertexWeight(v), g.VertexSize(v), want)
		}
	}
}

func TestTotals(t *testing.T) {
	g := buildPath(4) // 3 edges, unit weights
	if tw := g.TotalEdgeWeight(); tw != 3 {
		t.Fatalf("TotalEdgeWeight = %d, want 3", tw)
	}
	if tw := g.TotalVertexWeight(); tw != 4 {
		t.Fatalf("TotalVertexWeight = %d, want 4", tw)
	}
}

func TestClone(t *testing.T) {
	g := buildPaperGraph()
	cp := g.Clone()
	cp.vwgt[0] = 99
	if g.VertexWeight(0) == 99 {
		t.Fatal("Clone shares vertex weight storage")
	}
	if cp.NumEdges() != g.NumEdges() {
		t.Fatal("Clone lost edges")
	}
}

func TestSetVertexAttrs(t *testing.T) {
	g := buildPath(3)
	if err := g.SetVertexWeights([]int32{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := g.SetVertexSizes([]int32{4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	if g.VertexWeight(1) != 2 || g.VertexSize(2) != 6 {
		t.Fatal("attribute setters did not apply")
	}
	if err := g.SetVertexWeights([]int32{1}); err == nil {
		t.Fatal("expected length error")
	}
	if err := g.SetVertexSizes([]int32{1}); err == nil {
		t.Fatal("expected length error")
	}
}

func TestMETISRoundTrip(t *testing.T) {
	g := buildPaperGraph()
	g.UseDegreeWeights()
	var buf bytes.Buffer
	if err := WriteMETIS(&buf, g); err != nil {
		t.Fatalf("WriteMETIS: %v", err)
	}
	g2, err := ReadMETIS(&buf)
	if err != nil {
		t.Fatalf("ReadMETIS: %v", err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip mismatch: %d/%d vs %d/%d",
			g2.NumVertices(), g2.NumEdges(), g.NumVertices(), g.NumEdges())
	}
	for v := int32(0); v < g.NumVertices(); v++ {
		if g2.VertexWeight(v) != g.VertexWeight(v) || g2.VertexSize(v) != g.VertexSize(v) {
			t.Fatalf("vertex %d attrs differ", v)
		}
		a1, a2 := g.Neighbors(v), g2.Neighbors(v)
		if len(a1) != len(a2) {
			t.Fatalf("vertex %d degree differs", v)
		}
		for i := range a1 {
			if a1[i] != a2[i] {
				t.Fatalf("vertex %d adjacency differs", v)
			}
		}
	}
}

func TestReadMETISPlainFormat(t *testing.T) {
	// fmt code absent: unweighted triangle.
	in := "3 3\n2 3\n1 3\n1 2\n"
	g, err := ReadMETIS(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadMETIS: %v", err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("got %d vertices %d edges", g.NumVertices(), g.NumEdges())
	}
}

func TestReadMETISComments(t *testing.T) {
	in := "% a comment\n3 2\n% another\n2\n1 3\n2\n"
	g, err := ReadMETIS(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadMETIS: %v", err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("edges = %d, want 2", g.NumEdges())
	}
}

func TestReadMETISErrors(t *testing.T) {
	cases := []string{
		"",                       // empty
		"junk header\n",          // unparsable n
		"2 5\n2\n1\n",            // edge count mismatch
		"2 1\n9\n1\n",            // neighbor out of range
		"2 1 11\n1 1 2\n1 1 1\n", // truncated weighted line (missing weight field)
	}
	for i, in := range cases {
		if _, err := ReadMETIS(strings.NewReader(in)); err == nil {
			t.Errorf("case %d: expected error, got none", i)
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := buildPaperGraph()
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatalf("WriteEdgeList: %v", err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatalf("ReadEdgeList: %v", err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip mismatch")
	}
}

func TestReadEdgeListSparseIDs(t *testing.T) {
	in := "# comment\n100 200\n200 300\n% another comment\n300 100 5\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadEdgeList: %v", err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("got %d vertices %d edges, want 3/3", g.NumVertices(), g.NumEdges())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	for i, in := range []string{"1\n", "a b\n", "1 b\n", "1 2 x\n"} {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestBFSLevels(t *testing.T) {
	g := buildPath(5)
	lv := BFSLevels(g, 0)
	for v := int32(0); v < 5; v++ {
		if lv[v] != v {
			t.Fatalf("level[%d] = %d, want %d", v, lv[v], v)
		}
	}
	// Disconnected vertex.
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	g2 := b.Build()
	lv2 := BFSLevels(g2, 0)
	if lv2[2] != -1 {
		t.Fatalf("unreachable vertex level = %d, want -1", lv2[2])
	}
	// Out of range source.
	lv3 := BFSLevels(g2, 99)
	for _, l := range lv3 {
		if l != -1 {
			t.Fatal("out-of-range source should reach nothing")
		}
	}
}

func TestSSSPDistances(t *testing.T) {
	b := NewBuilder(4)
	b.AddWeightedEdge(0, 1, 10)
	b.AddWeightedEdge(0, 2, 1)
	b.AddWeightedEdge(2, 1, 2)
	b.AddWeightedEdge(1, 3, 1)
	g := b.Build()
	d := SSSPDistances(g, 0)
	want := []int64{0, 3, 1, 4}
	for v, dv := range d {
		if dv != want[v] {
			t.Fatalf("dist[%d] = %d, want %d", v, dv, want[v])
		}
	}
}

func TestSSSPMatchesBFSOnUnitWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	b := NewBuilder(200)
	seen := make(map[[2]int32]bool)
	for i := 0; i < 600; i++ {
		u, v := int32(rng.Intn(200)), int32(rng.Intn(200))
		if u > v {
			u, v = v, u
		}
		if u != v && !seen[[2]int32{u, v}] {
			seen[[2]int32{u, v}] = true
			b.AddEdge(u, v) // dedup so merged duplicates don't inflate weights
		}
	}
	g := b.Build()
	lv := BFSLevels(g, 0)
	d := SSSPDistances(g, 0)
	for v := range lv {
		if int64(lv[v]) != d[v] {
			t.Fatalf("vertex %d: BFS %d vs SSSP %d", v, lv[v], d[v])
		}
	}
}

func TestConnectedComponents(t *testing.T) {
	b := NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4)
	g := b.Build()
	comp, k := ConnectedComponents(g)
	if k != 3 {
		t.Fatalf("components = %d, want 3", k)
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Fatal("vertices 0,1,2 should share a component")
	}
	if comp[3] != comp[4] {
		t.Fatal("vertices 3,4 should share a component")
	}
	if comp[5] == comp[0] || comp[5] == comp[3] {
		t.Fatal("vertex 5 should be its own component")
	}
}

func TestExpandFrontier(t *testing.T) {
	g := buildPath(6)
	f0 := ExpandFrontier(g, []int32{2}, 0, nil)
	if len(f0) != 1 || f0[0] != 2 {
		t.Fatalf("k=0 frontier = %v, want [2]", f0)
	}
	f1 := ExpandFrontier(g, []int32{2}, 1, nil)
	if len(f1) != 3 {
		t.Fatalf("k=1 frontier = %v, want 3 vertices", f1)
	}
	f9 := ExpandFrontier(g, []int32{0}, 9, nil)
	if len(f9) != 6 {
		t.Fatalf("k=9 frontier should cover the path, got %v", f9)
	}
	// Duplicated and out-of-range seeds must be handled.
	fd := ExpandFrontier(g, []int32{1, 1, -5, 99}, 0, nil)
	if len(fd) != 1 || fd[0] != 1 {
		t.Fatalf("dedup frontier = %v, want [1]", fd)
	}
	// A caller-provided buffer must be reused, not reallocated.
	buf := make([]int32, 0, 16)
	fr := ExpandFrontier(g, []int32{2}, 1, buf)
	if &fr[:1][0] != &buf[:1][0] {
		t.Fatal("dst buffer was not reused")
	}
}

func TestDegreeHistogram(t *testing.T) {
	g := buildPath(4) // degrees 1,2,2,1
	h := g.DegreeHistogram()
	if h[0] != 2 || h[1] != 2 {
		t.Fatalf("histogram = %v, want [2 2]", h)
	}
}

func TestMaxAvgDegree(t *testing.T) {
	g := buildPaperGraph()
	if g.MaxDegree() != 3 {
		t.Fatalf("MaxDegree = %d, want 3", g.MaxDegree())
	}
	want := float64(2*g.NumEdges()) / float64(g.NumVertices())
	if g.AvgDegree() != want {
		t.Fatalf("AvgDegree = %f, want %f", g.AvgDegree(), want)
	}
}

func TestFromCSR(t *testing.T) {
	// A single edge 0-1.
	g, err := FromCSR([]int64{0, 1, 2}, []int32{1, 0}, []int32{1, 1}, []int32{1, 1}, []int32{1, 1})
	if err != nil {
		t.Fatalf("FromCSR: %v", err)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
	// Asymmetric weight must fail validation.
	if _, err := FromCSR([]int64{0, 1, 2}, []int32{1, 0}, []int32{1, 2}, []int32{1, 1}, []int32{1, 1}); err == nil {
		t.Fatal("expected asymmetry error")
	}
}

// Property: for any random multigraph input, Build produces a graph that
// passes Validate and preserves total inserted edge weight.
func TestQuickBuildInvariants(t *testing.T) {
	f := func(seed int64, nSmall uint8, edges uint16) bool {
		n := int32(nSmall%40) + 2
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder(n)
		var inserted int64
		for i := 0; i < int(edges%500); i++ {
			u, v := int32(rng.Intn(int(n))), int32(rng.Intn(int(n)))
			if u == v {
				continue
			}
			w := int32(rng.Intn(5) + 1)
			b.AddWeightedEdge(u, v, w)
			inserted += int64(w)
		}
		g := b.Build()
		if err := g.Validate(); err != nil {
			t.Logf("Validate failed: %v", err)
			return false
		}
		return g.TotalEdgeWeight() == inserted
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: BFS levels satisfy the triangle property — adjacent vertices'
// levels differ by at most 1 when both are reachable.
func TestQuickBFSLevelInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int32(rng.Intn(60) + 2)
		b := NewBuilder(n)
		for i := 0; i < int(n)*3; i++ {
			u, v := int32(rng.Intn(int(n))), int32(rng.Intn(int(n)))
			if u != v {
				b.AddEdge(u, v)
			}
		}
		g := b.Build()
		lv := BFSLevels(g, 0)
		for v := int32(0); v < n; v++ {
			if lv[v] < 0 {
				continue
			}
			for _, u := range g.Neighbors(v) {
				if lv[u] < 0 {
					return false // neighbor of reachable vertex must be reachable
				}
				diff := lv[v] - lv[u]
				if diff < -1 || diff > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestComputeStats(t *testing.T) {
	g := buildPaperGraph()
	st := ComputeStats(g)
	if st.Vertices != 10 || st.Edges != 13 {
		t.Fatalf("stats size: %+v", st)
	}
	if st.MinDegree != 2 || st.MaxDegree != 3 {
		t.Fatalf("degrees: %+v", st)
	}
	if st.Components != 1 || st.LargestComp != 10 {
		t.Fatalf("components: %+v", st)
	}
	// h-i-j triangle exists: clustering must be positive.
	if st.ClusteringCoeff <= 0 {
		t.Fatalf("clustering = %v", st.ClusteringCoeff)
	}
	if st.String() == "" {
		t.Fatal("empty report")
	}
	// Empty graph.
	empty := ComputeStats(NewBuilder(0).Build())
	if empty.Vertices != 0 || empty.Edges != 0 {
		t.Fatalf("empty stats: %+v", empty)
	}
}

func TestReadFile(t *testing.T) {
	g := buildPaperGraph()
	dir := t.TempDir()
	for format, write := range map[string]func(io.Writer, *Graph) error{
		"metis": WriteMETIS, "edgelist": WriteEdgeList, "binary": WriteBinary,
	} {
		path := filepath.Join(dir, format)
		var buf bytes.Buffer
		if err := write(&buf, g); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFile(path, format)
		if err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if got.NumVertices() != g.NumVertices() || got.NumEdges() != g.NumEdges() {
			t.Errorf("%s: read %d vertices, %d edges; wrote %d, %d", format,
				got.NumVertices(), got.NumEdges(), g.NumVertices(), g.NumEdges())
		}
	}
	if _, err := ReadFile(filepath.Join(dir, "metis"), "nope"); err == nil || !strings.Contains(err.Error(), `unknown format "nope"`) {
		t.Errorf("unknown format: err = %v", err)
	}
	if _, err := ReadFile(filepath.Join(dir, "absent"), "metis"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("missing file: err = %v", err)
	}
	if _, err := ReadFile(filepath.Join(dir, "edgelist"), "binary"); err == nil {
		t.Error("an edge list parsed as binary")
	}
}
