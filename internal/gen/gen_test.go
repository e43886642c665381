package gen

import (
	"math"
	"testing"
	"testing/quick"

	"paragon/internal/graph"
)

func TestRMATBasics(t *testing.T) {
	g := RMAT(1000, 5000, 0.57, 0.19, 0.19, 42)
	if g.NumVertices() != 1000 {
		t.Fatalf("vertices = %d, want 1000", g.NumVertices())
	}
	// Duplicate collisions make the exact count undershoot slightly.
	if g.NumEdges() < 4000 || g.NumEdges() > 5000+int64(g.NumVertices()) {
		t.Fatalf("edges = %d, want near 5000", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestRMATDeterministic(t *testing.T) {
	g1 := RMAT(500, 2000, 0.57, 0.19, 0.19, 7)
	g2 := RMAT(500, 2000, 0.57, 0.19, 0.19, 7)
	if g1.NumEdges() != g2.NumEdges() {
		t.Fatalf("same seed produced different edge counts: %d vs %d", g1.NumEdges(), g2.NumEdges())
	}
	for v := int32(0); v < g1.NumVertices(); v++ {
		a1, a2 := g1.Neighbors(v), g2.Neighbors(v)
		if len(a1) != len(a2) {
			t.Fatalf("vertex %d degree differs across runs", v)
		}
		for i := range a1 {
			if a1[i] != a2[i] {
				t.Fatalf("vertex %d adjacency differs across runs", v)
			}
		}
	}
	g3 := RMAT(500, 2000, 0.57, 0.19, 0.19, 8)
	same := g3.NumEdges() == g1.NumEdges()
	if same {
		diff := false
		for v := int32(0); v < g1.NumVertices() && !diff; v++ {
			a1, a3 := g1.Neighbors(v), g3.Neighbors(v)
			if len(a1) != len(a3) {
				diff = true
				break
			}
			for i := range a1 {
				if a1[i] != a3[i] {
					diff = true
					break
				}
			}
		}
		if !diff {
			t.Fatal("different seeds produced identical graphs")
		}
	}
}

func TestRMATSkew(t *testing.T) {
	g := RMAT(4096, 40000, 0.57, 0.19, 0.19, 3)
	// A power-law graph must have a hub far above the average degree.
	if g.MaxDegree() < 4*int32(g.AvgDegree()) {
		t.Fatalf("RMAT not skewed: max degree %d vs avg %.1f", g.MaxDegree(), g.AvgDegree())
	}
}

func TestRMATPanics(t *testing.T) {
	for i, f := range []func(){
		func() { RMAT(1, 10, 0.5, 0.2, 0.2, 1) },
		func() { RMAT(100, 10, 0, 0.2, 0.2, 1) },
		func() { RMAT(100, 10, 0.5, 0.3, 0.3, 1) },
		func() { RMAT(100, 10, math.NaN(), 0.2, 0.2, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestBarabasiAlbert(t *testing.T) {
	g := BarabasiAlbert(2000, 4, 9)
	if g.NumVertices() != 2000 {
		t.Fatalf("vertices = %d", g.NumVertices())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Every vertex attaches with k edges, so min degree >= 1 and the
	// graph is connected by construction.
	_, comps := graph.ConnectedComponents(g)
	if comps != 1 {
		t.Fatalf("BA graph has %d components, want 1", comps)
	}
	if g.MaxDegree() < 3*int32(g.AvgDegree()) {
		t.Fatalf("BA graph lacks hubs: max %d avg %.1f", g.MaxDegree(), g.AvgDegree())
	}
}

func TestErdosRenyi(t *testing.T) {
	g := ErdosRenyi(500, 2000, 5)
	if g.NumEdges() != 2000 {
		t.Fatalf("edges = %d, want exactly 2000", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on impossible m")
		}
	}()
	ErdosRenyi(3, 100, 1)
}

func TestWattsStrogatz(t *testing.T) {
	g := WattsStrogatz(1000, 3, 0.1, 12)
	if g.NumVertices() != 1000 {
		t.Fatalf("vertices = %d", g.NumVertices())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Ring lattice with k=3 gives ~3n edges, rewiring keeps the count close.
	if g.NumEdges() < 2800 || g.NumEdges() > 3000 {
		t.Fatalf("edges = %d, want ≈3000", g.NumEdges())
	}
}

func TestMesh2D(t *testing.T) {
	g := Mesh2D(10, 12)
	if g.NumVertices() != 120 {
		t.Fatalf("vertices = %d, want 120", g.NumVertices())
	}
	// Edges: horizontal 10*11 + vertical 9*12 + diagonal 9*11.
	want := int64(10*11 + 9*12 + 9*11)
	if g.NumEdges() != want {
		t.Fatalf("edges = %d, want %d", g.NumEdges(), want)
	}
	_, comps := graph.ConnectedComponents(g)
	if comps != 1 {
		t.Fatalf("mesh has %d components", comps)
	}
	if g.MaxDegree() > 8 {
		t.Fatalf("mesh max degree %d, want <= 8", g.MaxDegree())
	}
}

func TestMesh3D(t *testing.T) {
	g := Mesh3D(4, 5, 6)
	if g.NumVertices() != 120 {
		t.Fatalf("vertices = %d, want 120", g.NumVertices())
	}
	want := int64(3*5*6 + 4*4*6 + 4*5*5)
	if g.NumEdges() != want {
		t.Fatalf("edges = %d, want %d", g.NumEdges(), want)
	}
	if g.MaxDegree() > 6 {
		t.Fatalf("3D mesh max degree %d, want <= 6", g.MaxDegree())
	}
}

func TestRoadGrid(t *testing.T) {
	g := RoadGrid(50, 50, 0.72, 0.05, 77)
	if g.NumVertices() != 2500 {
		t.Fatalf("vertices = %d", g.NumVertices())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	avg := g.AvgDegree()
	if avg < 2.0 || avg > 3.5 {
		t.Fatalf("road network avg degree %.2f outside road-like band [2.0,3.5]", avg)
	}
	// No isolated vertices by construction.
	for v := int32(0); v < g.NumVertices(); v++ {
		if g.Degree(v) == 0 {
			t.Fatalf("vertex %d isolated", v)
		}
	}
}

func TestSampleEdges(t *testing.T) {
	base := ErdosRenyi(400, 4000, 3)
	half := SampleEdges(base, 0.5, 10)
	if half.NumVertices() != base.NumVertices() {
		t.Fatalf("sampling changed vertex count")
	}
	ratio := float64(half.NumEdges()) / float64(base.NumEdges())
	if ratio < 0.42 || ratio > 0.58 {
		t.Fatalf("sample ratio %.3f far from 0.5", ratio)
	}
	full := SampleEdges(base, 1.0, 10)
	if full.NumEdges() != base.NumEdges() {
		t.Fatalf("p=1 sample dropped edges: %d vs %d", full.NumEdges(), base.NumEdges())
	}
	none := SampleEdges(base, 0.0, 10)
	if none.NumEdges() != 0 {
		t.Fatalf("p=0 sample kept %d edges", none.NumEdges())
	}
}

func TestDatasetsRegistry(t *testing.T) {
	ds := Datasets()
	if len(ds) != 12 {
		t.Fatalf("registry has %d datasets, want 12 (Figures 9–11)", len(ds))
	}
	seen := map[string]bool{}
	for _, d := range ds {
		if seen[d.Name] {
			t.Fatalf("duplicate dataset name %q", d.Name)
		}
		seen[d.Name] = true
		g := d.Build(0.02)
		if g.NumVertices() < 4 {
			t.Fatalf("%s at scale 0.02 produced %d vertices", d.Name, g.NumVertices())
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: Validate: %v", d.Name, err)
		}
	}
}

func TestDatasetByName(t *testing.T) {
	d, err := DatasetByName("com-lj")
	if err != nil {
		t.Fatal(err)
	}
	if d.Class != "Social Network" {
		t.Fatalf("com-lj class = %q", d.Class)
	}
	if _, err := DatasetByName("nope"); err == nil {
		t.Fatal("expected error for unknown dataset")
	}
}

func TestFriendsterSeries(t *testing.T) {
	series := FriendsterSeries(0.01)
	if len(series) != 4 {
		t.Fatalf("series length %d, want 4", len(series))
	}
	for i := 1; i < len(series); i++ {
		if series[i].Graph.NumEdges() <= series[i-1].Graph.NumEdges() {
			t.Fatalf("series not increasing: p=%.2f has %d edges, p=%.2f has %d",
				series[i-1].P, series[i-1].Graph.NumEdges(),
				series[i].P, series[i].Graph.NumEdges())
		}
		if series[i].Graph.NumVertices() != series[0].Graph.NumVertices() {
			t.Fatal("sampling should keep the vertex set fixed, as the paper observed")
		}
	}
}

// Property: every generator output validates and has no self loops at any
// small scale.
func TestQuickGeneratorsValid(t *testing.T) {
	f := func(seed int64) bool {
		n := int32(seed%200+64) * 1
		if n < 64 {
			n = 64
		}
		for _, g := range []*graph.Graph{
			RMAT(n, int64(n)*4, 0.57, 0.19, 0.19, seed),
			ErdosRenyi(n, int64(n)*2, seed),
			BarabasiAlbert(n, 3, seed),
			WattsStrogatz(n, 2, 0.2, seed),
		} {
			if err := g.Validate(); err != nil {
				t.Logf("invalid: %v", err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestInt63Threshold checks RMAT's integer quadrant draw against
// rng.Float64's float comparison: for every probability the generators
// use, t is the first x with float64(x)/2^63 >= p, and a draw is redrawn
// exactly when Float64 would resample it (its quotient rounds to 1).
func TestInt63Threshold(t *testing.T) {
	const two63 = 1 << 63
	var ps []float64
	for _, abc := range [][3]float64{{.57, .19, .19}, {.45, .22, .22}, {.5, .2, .2}, {.25, .25, .25}, {.45, .15, .15}} {
		a, b, c := abc[0], abc[1], abc[2]
		ps = append(ps, a, a+b, a+b+c)
	}
	ps = append(ps, 1)
	for _, p := range ps {
		th := int63Threshold(p)
		if !(float64(th-1)/two63 < p && p <= float64(th)/two63) {
			t.Fatalf("p=%v: threshold %d does not separate the quotients", p, th)
		}
		for x, hi := max(th-2048, 0), th+min(2048, math.MaxInt64-th); x < hi; x++ {
			if (x < th) != (float64(x)/two63 < p) {
				t.Fatalf("p=%v: x=%d compares differently on integers", p, x)
			}
		}
	}
	t1 := int63Threshold(1)
	for x := int64(two63 - 1); x >= two63-4096; x-- {
		if (x >= t1) != (float64(x)/two63 == 1) {
			t.Fatalf("x=%d: redraw %v, Float64 resamples %v", x, x >= t1, float64(x)/two63 == 1)
		}
	}
}
