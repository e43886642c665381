package gas

import (
	"testing"
	"testing/quick"

	"paragon/internal/gen"
	"paragon/internal/graph"
	"paragon/internal/topology"
	"paragon/internal/vertexcut"
)

func testEngine(t *testing.T, g *graph.Graph, k int32) *Engine {
	t.Helper()
	a := vertexcut.HDRF(g, k, 2)
	e, err := NewEngine(g, a, topology.PittCluster(2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewEngineErrors(t *testing.T) {
	g := gen.Mesh2D(6, 6)
	a := vertexcut.Random(g, 4)
	// Assignment from a different graph (edge count mismatch).
	g2 := gen.Mesh2D(8, 8)
	if _, err := NewEngine(g2, a, topology.PittCluster(1), Options{}); err == nil {
		t.Fatal("expected edge-count error")
	}
	big := vertexcut.Random(g, 100)
	if _, err := NewEngine(g, big, topology.UMACluster(1), Options{}); err == nil {
		t.Fatal("expected too-many-partitions error")
	}
}

func TestRunNeedsProgram(t *testing.T) {
	g := gen.Mesh2D(4, 4)
	e := testEngine(t, g, 4)
	if _, err := e.Run(Program{}); err == nil {
		t.Fatal("expected program error")
	}
}

func TestComponentsMatchesReference(t *testing.T) {
	b := graph.NewBuilder(10)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4)
	b.AddEdge(5, 6)
	b.AddEdge(6, 7)
	b.AddEdge(7, 8)
	g := b.Build()
	e := testEngine(t, g, 3)
	res, err := Components(e, g)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{0, 0, 0, 3, 3, 5, 5, 5, 5, 9}
	for v, l := range res.Values {
		if l != want[v] {
			t.Fatalf("component[%d] = %d, want %d", v, l, want[v])
		}
	}
	if res.JET <= 0 || res.Iterations < 2 {
		t.Fatalf("implausible run: %+v", res)
	}
}

func TestComponentsLargeGraph(t *testing.T) {
	g := gen.RMAT(2000, 8000, 0.57, 0.19, 0.19, 3)
	e := testEngine(t, g, 16)
	res, err := Components(e, g)
	if err != nil {
		t.Fatal(err)
	}
	comp, _ := graph.ConnectedComponents(g)
	// GAS labels are min-vertex-ids; reference labels are component
	// indexes. Same grouping <=> equal label iff equal component.
	repr := map[int32]int64{}
	for v := int32(0); v < g.NumVertices(); v++ {
		c := comp[v]
		if r, ok := repr[c]; ok {
			if res.Values[v] != r {
				t.Fatalf("vertex %d label %d, component representative %d", v, res.Values[v], r)
			}
		} else {
			repr[c] = res.Values[v]
		}
	}
}

func TestHDRFSyncVolumeBelowRandom(t *testing.T) {
	// The PowerGraph/HDRF motivation, §8: fewer replicas => less replica
	// synchronization traffic for the same computation.
	g := gen.RMAT(3000, 18000, 0.57, 0.19, 0.19, 8)
	cl := topology.PittCluster(2)
	run := func(a *vertexcut.Assignment) int64 {
		e, err := NewEngine(g, a, cl, Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Components(e, g)
		if err != nil {
			t.Fatal(err)
		}
		return res.Volume.Total()
	}
	vRandom := run(vertexcut.Random(g, 32))
	vHDRF := run(vertexcut.HDRF(g, 32, 2))
	if vHDRF >= vRandom {
		t.Fatalf("HDRF sync volume %d not below random %d", vHDRF, vRandom)
	}
}

func TestIsolatedVertices(t *testing.T) {
	b := graph.NewBuilder(5)
	b.AddEdge(0, 1)
	g := b.Build() // vertices 2,3,4 isolated
	a := vertexcut.Greedy(g, 2)
	e, err := NewEngine(g, a, topology.PittCluster(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Components(e, g)
	if err != nil {
		t.Fatal(err)
	}
	for v := int32(2); v < 5; v++ {
		if res.Values[v] != int64(v) {
			t.Fatalf("isolated vertex %d label %d", v, res.Values[v])
		}
	}
}

func TestIterationGuard(t *testing.T) {
	g := gen.Mesh2D(4, 4)
	a := vertexcut.Random(g, 2)
	e, err := NewEngine(g, a, topology.PittCluster(1), Options{MaxIterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	// A program that always reports change must hit the guard.
	prog := Program{
		Init:   func(v int32) int64 { return 0 },
		Gather: func(v, u int32, uVal int64, w int32) int64 { return 1 },
		Sum:    func(a, b int64) int64 { return a + b },
		Apply:  func(v int32, old, sum int64, hasSum bool) (int64, bool) { return old + 1, true },
	}
	if _, err := e.Run(prog); err == nil {
		t.Fatal("expected iteration-guard error")
	}
}

// Property: GAS components equals the serial reference for arbitrary
// random graphs under all three assigners.
func TestQuickComponentsEquivalence(t *testing.T) {
	f := func(seed int64, which uint8) bool {
		g := gen.ErdosRenyi(150, 300, seed) // sparse: several components
		var a *vertexcut.Assignment
		switch which % 3 {
		case 0:
			a = vertexcut.Random(g, 6)
		case 1:
			a = vertexcut.Greedy(g, 6)
		default:
			a = vertexcut.HDRF(g, 6, 2)
		}
		e, err := NewEngine(g, a, topology.GordonCluster(1), Options{})
		if err != nil {
			return false
		}
		res, err := Components(e, g)
		if err != nil {
			return false
		}
		comp, _ := graph.ConnectedComponents(g)
		repr := map[int32]int64{}
		for v := int32(0); v < g.NumVertices(); v++ {
			if r, ok := repr[comp[v]]; ok {
				if res.Values[v] != r {
					return false
				}
			} else {
				repr[comp[v]] = res.Values[v]
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}
