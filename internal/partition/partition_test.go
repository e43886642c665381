package partition

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"paragon/internal/gen"
	"paragon/internal/graph"
	"paragon/internal/topology"
)

// paperGraph returns the Figure 3–5 graph with the Figure 3 decomposition:
// P1 = {a,b,c,d} (N1), P2 = {e,f,g} (N2), P3 = {h,i,j} (N3).
// Vertices: a=0 b=1 c=2 d=3 e=4 f=5 g=6 h=7 i=8 j=9.
func paperGraph() (*graph.Graph, *Partitioning) {
	b := graph.NewBuilder(10)
	edges := [][2]int32{
		{0, 1}, {0, 2}, {0, 9},
		{1, 2}, {1, 3},
		{2, 3},
		{3, 4},
		{4, 5}, {4, 6},
		{5, 6},
		{7, 8}, {7, 9}, {8, 9},
	}
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	g := b.Build()
	p := New(3, 10)
	for v, part := range []int32{0, 0, 0, 0, 1, 1, 1, 2, 2, 2} {
		p.Assign[v] = part
	}
	return g, p
}

func TestNewAndValidate(t *testing.T) {
	g, p := paperGraph()
	if err := p.Validate(g); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	bad := New(2, 10)
	bad.Assign[3] = 7
	if err := bad.Validate(g); err == nil {
		t.Fatal("expected out-of-range error")
	}
	short := New(2, 4)
	if err := short.Validate(g); err == nil {
		t.Fatal("expected length error")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k < 1")
		}
	}()
	New(0, 5)
}

func TestMovePanicsOutOfRange(t *testing.T) {
	_, p := paperGraph()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.Move(0, 99)
}

func TestWeightsCountsSizes(t *testing.T) {
	g, p := paperGraph()
	w := p.Weights(g)
	if w[0] != 4 || w[1] != 3 || w[2] != 3 {
		t.Fatalf("unit weights = %v, want [4 3 3]", w)
	}
	cnt := p.Counts(g)
	if cnt[0] != 4 || cnt[1] != 3 || cnt[2] != 3 {
		t.Fatalf("counts = %v", cnt)
	}
	// Degree weighting sets weight and size to the degree, so both
	// per-partition sums equal the partition's incident-edge count.
	g.UseDegreeWeights()
	w2 := p.Weights(g)
	s2 := make([]int64, p.K)
	for v, part := range p.Assign {
		s2[part] += int64(g.VertexSize(int32(v)))
	}
	ie := p.IncidentEdges(g)
	for i := range w2 {
		if w2[i] != ie[i] || s2[i] != ie[i] {
			t.Fatalf("degree weights %v, sizes %v, incident edges %v must agree", w2, s2, ie)
		}
	}
}

func TestIncidentEdges(t *testing.T) {
	g, p := paperGraph()
	ie := p.IncidentEdges(g)
	// Partition degrees: a=3,b=3,c=3,d=3 => 12; e=3,f=2,g=2 => 7; h=2,i=2,j=3 => 7.
	if ie[0] != 12 || ie[1] != 7 || ie[2] != 7 {
		t.Fatalf("incident edges = %v, want [12 7 7]", ie)
	}
}

func TestEdgeCutFigure3(t *testing.T) {
	g, p := paperGraph()
	// Figure 3 has 4 cut edges: d-e (P1-P2), a-j (P1-P3), and the paper
	// counts 4 total; our encoding cuts: d-e, a-j => plus none else... count:
	// edges across: {0,9} P1-P3, {3,4} P1-P2. That's 2 — but the paper's
	// Figure 3 shows 4 cut edges because its drawn decomposition differs.
	// We assert our encoding's exact cut.
	if cut := EdgeCut(g, p); cut != 2 {
		t.Fatalf("edge cut = %d, want 2 for this encoding", cut)
	}
	// Moving a to P3 (with j) changes the cut: a-j healed, a-b and a-c cut.
	p2 := p.Clone()
	p2.Move(0, 2)
	if cut := EdgeCut(g, p2); cut != 3 {
		t.Fatalf("edge cut after move = %d, want 3", cut)
	}
}

func TestCommCostUniformEqualsAlphaCut(t *testing.T) {
	g, p := paperGraph()
	c := topology.UniformMatrix(3)
	cost := CommCost(g, p, c, 10)
	if cost != 10*float64(EdgeCut(g, p)) {
		t.Fatalf("uniform comm cost %v != α·cut %v", cost, 10*float64(EdgeCut(g, p)))
	}
}

func TestCommCostPaperMatrix(t *testing.T) {
	g, p := paperGraph()
	c := topology.PaperExampleMatrix()
	// Cut edges: a-j (P1-P3, cost 6), d-e (P1-P2, cost 1). α=1 => 7.
	if cost := CommCost(g, p, c, 1); cost != 7 {
		t.Fatalf("comm cost = %v, want 7", cost)
	}
	// Move a to P2 (Figure 5's key move): cut edges become a-b (1·1),
	// a-c (1·1), a-j (P2-P3 = 1), d-e (P1-P2 = 1) => 4.
	p2 := p.Clone()
	p2.Move(0, 1)
	if cost := CommCost(g, p2, c, 1); cost != 4 {
		t.Fatalf("comm cost after moving a to P2 = %v, want 4", cost)
	}
}

func TestMigrationCost(t *testing.T) {
	g, old := paperGraph()
	now := old.Clone()
	c := topology.PaperExampleMatrix()
	if mc := MigrationCost(g, old, now, c); mc != 0 {
		t.Fatalf("no-move migration cost = %v", mc)
	}
	now.Move(0, 1) // a: P1 -> P2, vs(a)=1, c=1
	if mc := MigrationCost(g, old, now, c); mc != 1 {
		t.Fatalf("migration cost = %v, want 1", mc)
	}
	now.Move(9, 0) // j: P3 -> P1, c(P3,P1)=6
	if mc := MigrationCost(g, old, now, c); mc != 7 {
		t.Fatalf("migration cost = %v, want 7", mc)
	}
}

func TestSkewness(t *testing.T) {
	g, p := paperGraph()
	// Unit weights: loads 4,3,3; avg 10/3; skew = 4/(10/3) = 1.2.
	if s := Skewness(g, p); math.Abs(s-1.2) > 1e-9 {
		t.Fatalf("skewness = %v, want 1.2", s)
	}
	// Perfectly balanced single-partition case.
	p1 := New(1, 10)
	if s := Skewness(g, p1); s != 1 {
		t.Fatalf("1-way skewness = %v, want 1", s)
	}
}

func TestSkewnessZeroWeights(t *testing.T) {
	b := graph.NewBuilder(2)
	b.AddEdge(0, 1)
	b.SetVertexWeight(0, 0)
	b.SetVertexWeight(1, 0)
	g := b.Build()
	p := New(2, 2)
	p.Assign[1] = 1
	if s := Skewness(g, p); s != 1 {
		t.Fatalf("zero-weight skewness = %v, want 1 (defined fallback)", s)
	}
}

func TestExternalDegrees(t *testing.T) {
	g, p := paperGraph()
	// Vertex a (0): neighbors b,c in P1; j in P3.
	d := ExternalDegrees(g, p, 0)
	if d[0] != 2 || d[1] != 0 || d[2] != 1 {
		t.Fatalf("d_ext(a) = %v, want [2 0 1]", d)
	}
	// Vertex e (4): neighbor d in P1, f,g in P2.
	d = ExternalDegrees(g, p, 4)
	if d[0] != 1 || d[1] != 2 || d[2] != 0 {
		t.Fatalf("d_ext(e) = %v, want [1 2 0]", d)
	}
}

func TestBoundary(t *testing.T) {
	g, p := paperGraph()
	if !IsBoundary(g, p, 0) { // a has j in P3
		t.Fatal("a must be boundary")
	}
	if IsBoundary(g, p, 1) { // b's neighbors a,c,d all in P1
		t.Fatal("b must be interior")
	}
}

func TestBalanceBound(t *testing.T) {
	g, _ := paperGraph() // 10 unit-weight vertices
	if b := BalanceBound(g, 2, 0.0); b != 5 {
		t.Fatalf("bound = %d, want 5", b)
	}
	// ceil(10/3)=4, ×1.02 = 4.08, truncated to 4.
	if b := BalanceBound(g, 3, 0.02); b != 4 {
		t.Fatalf("bound = %d, want 4", b)
	}
}

func TestEvaluate(t *testing.T) {
	g, p := paperGraph()
	q := Evaluate(g, p, topology.PaperExampleMatrix(), 1)
	if q.EdgeCut != 2 || q.CommCost != 7 {
		t.Fatalf("Evaluate = %+v", q)
	}
	if math.Abs(q.Skewness-1.2) > 1e-9 {
		t.Fatalf("Evaluate skewness = %v", q.Skewness)
	}
}

// Property: for random graphs and random partitionings, CommCost with a
// uniform matrix equals α·EdgeCut, and both are invariant under relabeling
// partitions by a permutation.
func TestQuickUniformCommEqualsCut(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.ErdosRenyi(120, 400, seed)
		k := int32(rng.Intn(6) + 2)
		p := New(k, g.NumVertices())
		for v := range p.Assign {
			p.Assign[v] = int32(rng.Intn(int(k)))
		}
		c := topology.UniformMatrix(int(k))
		if CommCost(g, p, c, 3) != 3*float64(EdgeCut(g, p)) {
			return false
		}
		// Relabel partitions with a permutation: cut must be unchanged.
		perm := rng.Perm(int(k))
		p2 := p.Clone()
		for v := range p2.Assign {
			p2.Assign[v] = int32(perm[p.Assign[v]])
		}
		return EdgeCut(g, p) == EdgeCut(g, p2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: total weight is conserved across partitions, and skewness is
// always >= 1.
func TestQuickWeightConservationAndSkew(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.ErdosRenyi(100, 300, seed)
		g.UseDegreeWeights()
		k := int32(rng.Intn(7) + 1)
		p := New(k, g.NumVertices())
		for v := range p.Assign {
			p.Assign[v] = int32(rng.Intn(int(k)))
		}
		w := p.Weights(g)
		var sum int64
		for _, wi := range w {
			sum += wi
		}
		if sum != g.TotalVertexWeight() {
			return false
		}
		return Skewness(g, p) >= 1-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: MigrationCost is zero iff the assignments are identical, and
// symmetric matrices make it symmetric in old/new.
func TestQuickMigrationSymmetry(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.ErdosRenyi(80, 200, seed)
		k := int32(4)
		old := New(k, g.NumVertices())
		now := New(k, g.NumVertices())
		for v := range old.Assign {
			old.Assign[v] = int32(rng.Intn(int(k)))
			now.Assign[v] = int32(rng.Intn(int(k)))
		}
		c := topology.UniformMatrix(int(k))
		ab := MigrationCost(g, old, now, c)
		ba := MigrationCost(g, now, old, c)
		if ab != ba {
			return false
		}
		same := MigrationCost(g, old, old, c)
		return same == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestHopCut(t *testing.T) {
	g, p := paperGraph()
	// Uniform 1-hop distance: HopCut equals EdgeCut.
	ones := func(i, j int32) int { return 1 }
	if HopCut(g, p, ones) != EdgeCut(g, p) {
		t.Fatal("unit-hop HopCut must equal EdgeCut")
	}
	// Figure 6-like distances: P1-P3 is 6 hops, others 1.
	hops := func(i, j int32) int {
		if (i == 0 && j == 2) || (i == 2 && j == 0) {
			return 6
		}
		return 1
	}
	// Cut edges in the fixture: a-j (P1-P3, 6 hops) and d-e (P1-P2, 1).
	if got := HopCut(g, p, hops); got != 7 {
		t.Fatalf("HopCut = %d, want 7", got)
	}
}

func TestCheckCosts(t *testing.T) {
	square := func(k int) [][]float64 { return topology.UniformMatrix(k) }
	shortRow := square(4)
	shortRow[2] = shortRow[2][:3]
	nilRow := square(4)
	nilRow[0] = nil
	longTailShort := append(square(3), []float64{1}) // a short row past k is not read
	cases := []struct {
		name string
		c    [][]float64
		k    int32
		ok   bool
	}{
		{"exact fit", square(4), 4, true},
		{"larger than k", square(6), 4, true},
		{"short row past k", longTailShort, 3, true},
		{"k = 1", square(1), 1, true},
		{"k = 1, empty row", [][]float64{{}}, 1, false},
		{"too few rows", square(3), 4, false},
		{"nil matrix", nil, 2, false},
		{"short row", shortRow, 4, false},
		{"nil row", nilRow, 4, false},
		{"NaN entry", with(square(4), 1, 2, math.NaN()), 4, false},
		{"+Inf entry", with(square(4), 3, 0, math.Inf(1)), 4, false},
		{"-Inf entry", with(square(4), 0, 3, math.Inf(-1)), 4, false},
		{"negative entry", with(square(4), 2, 1, -1), 4, false},
		{"negative diagonal", with(square(4), 2, 2, -0.5), 4, false},
		{"NaN past k", with(square(5), 4, 4, math.NaN()), 4, true},
		{"range past the grid", with(square(3), 0, 2, math.Ldexp(1, 62-CostBits)), 3, false},
	}
	for _, tc := range cases {
		if _, err := CheckCosts(tc.c, tc.k); (err == nil) != tc.ok {
			t.Errorf("%s: CheckCosts = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// with sets c[i][j] = x and returns c.
func with(c [][]float64, i, j int, x float64) [][]float64 {
	c[i][j] = x
	return c
}

// TestCheckCostsQuantises pins the grid: the unit is the power of two
// 2^(⌊log₂ c_min⌋ − CostBits), integer and dyadic entries land on it
// exactly (so Real gives them back bit for bit), any other entry is
// rounded to the nearest step, and the uniformity flag looks at the
// off-diagonal only.
func TestCheckCostsQuantises(t *testing.T) {
	cases := []struct {
		name    string
		c       [][]float64
		exp     int
		uniform bool
		exact   bool
	}{
		{"uniform", topology.UniformMatrix(4), -CostBits, true, true},
		{"Pitt off-diagonals", [][]float64{{0, 2, 15}, {2, 0, 4}, {15, 4, 0}}, 1 - CostBits, false, true},
		{"Pitt at λ = 1", [][]float64{{3, 15, 21}, {15, 3, 19}, {21, 19, 3}}, 3 - CostBits, false, true},
		{"dyadic fractions", [][]float64{{0, 0.375, 6.5}, {0.375, 0, 0.375}, {6.5, 0.375, 0}}, -2 - CostBits, false, true},
		{"uniform off-diagonal, non-zero diagonal", [][]float64{{7, 1}, {1, 0.5}}, -CostBits, true, true},
		{"all zero", [][]float64{{0, 0}, {0, 0}}, -CostBits, true, true},
		{"not dyadic", [][]float64{{0, 15, 19}, {15, 0, 1.0 / 3}, {19, 1.0 / 3, 0}}, -2 - CostBits, false, false},
	}
	for _, tc := range cases {
		k := int32(len(tc.c))
		cs, err := CheckCosts(tc.c, k)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if cs.Exp != tc.exp || cs.Uniform != tc.uniform {
			t.Errorf("%s: Exp %d Uniform %v, want %d %v", tc.name, cs.Exp, cs.Uniform, tc.exp, tc.uniform)
		}
		for i := int32(0); i < k; i++ {
			for j := int32(0); j < k; j++ {
				c, back := tc.c[i][j], math.Ldexp(float64(cs.At(i, j)), cs.Exp)
				if tc.exact && back != c {
					t.Errorf("%s: c[%d][%d] = %v comes back as %v", tc.name, i, j, c, back)
				}
				if math.Abs(back-c) > math.Ldexp(1, cs.Exp-1) {
					t.Errorf("%s: c[%d][%d] = %v is %v on the grid, more than half a step off", tc.name, i, j, c, back)
				}
			}
		}
		if x := int64(12345) << AlphaBits; cs.Real(x) != math.Ldexp(12345, cs.Exp) {
			t.Errorf("%s: Real(%d) = %v", tc.name, x, cs.Real(x))
		}
	}
	if a := Alpha(10); a != 10<<AlphaBits {
		t.Errorf("Alpha(10) = %d, want %d", a, 10<<AlphaBits)
	}
}

// TestCheckObjectiveBound refuses α it cannot put on the grid, and a
// graph whose largest possible score reaches the limit: exactly at the
// bound is refused, one unit below passes.
func TestCheckObjectiveBound(t *testing.T) {
	g := gen.Mesh2D(8, 8)
	cs, err := CheckCosts([][]float64{{0, 2, 15}, {2, 0, 4}, {15, 4, 0}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, alpha := range []float64{math.NaN(), math.Inf(1), -1} {
		if err := CheckObjective(g, cs, alpha); err == nil {
			t.Errorf("α = %v accepted", alpha)
		}
	}
	// Unit edge weights and vertex sizes: the score bound is
	// max C·(Alpha(α)·|E| + |V|·2^AlphaBits); Eq. 10's is below it here.
	bound := cs.At(0, 2) * (Alpha(10)*g.TotalEdgeWeight() + int64(g.NumVertices())<<AlphaBits)
	if servers := cs.At(0, 2) * 3 * g.NumHalfEdges(); servers >= bound {
		t.Fatalf("Eq. 10's bound %d is not below the score's %d; the test reaches the wrong one", servers, bound)
	}
	defer SetMaxObjective(bound)()
	if err := CheckObjective(g, cs, 10); err == nil || !strings.Contains(err.Error(), "int64") {
		t.Errorf("bound %d at the limit: err = %v, want the overflow refusal", bound, err)
	}
	SetMaxObjective(bound + 1)
	if err := CheckObjective(g, cs, 10); err != nil {
		t.Errorf("bound %d below the limit: %v", bound, err)
	}
}
