package paragon

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"paragon/internal/gen"
	"paragon/internal/graph"
	"paragon/internal/partition"
	"paragon/internal/stream"
	"paragon/internal/topology"
)

// exampleGraph reconstructs the Figures 3–6 worked example (see the
// aragon package tests for the derivation). Vertices a..j are 0..9.
func exampleGraph() *graph.Graph {
	b := graph.NewBuilder(10)
	for _, e := range [][2]int32{
		{0, 1}, {0, 2}, {0, 3}, {0, 9},
		{1, 2}, {2, 3},
		{3, 4}, {4, 5}, {4, 6}, {5, 6},
		{7, 8}, {7, 9}, {8, 9},
	} {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

func fig3() *partition.Partitioning {
	p := partition.New(3, 10)
	copy(p.Assign, []int32{2, 0, 0, 1, 1, 1, 1, 2, 2, 2})
	return p
}

func TestSelectMasterPaperExample(t *testing.T) {
	// §5 Master Node Selection: "in case of Figure 4, we should select
	// server M[2] as the master node" — index 1 in 0-based terms.
	c := topology.PaperExampleMatrix()
	if m := selectMaster(quantised(t, c)); m != 1 {
		t.Fatalf("master = %d, want 1 (the paper's M[2])", m)
	}
}

func TestSelectGroupServersPaperExample(t *testing.T) {
	// §5 Group Server Selection: for the group {P1, P2, P3} under the
	// Figure 6 costs, M[2] (index 1) is optimal.
	c := topology.PaperExampleMatrix()
	ps := []int64{10, 10, 10} // equal shipping mass
	servers := SelectGroupServers([][]int32{{0, 1, 2}}, ps, quantised(t, c), nil, 1)
	if servers[0] != 1 {
		t.Fatalf("group server = %d, want 1", servers[0])
	}
}

func TestSelectGroupServersPenaltySpreads(t *testing.T) {
	// Two groups, all costs equal: without node info both would pick
	// cheap servers independently; with all servers on one node except
	// one, the σ(s) penalty must push the second group off the hot node.
	k := 4
	c := make([][]float64, k)
	for i := range c {
		c[i] = make([]float64, k)
		for j := range c[i] {
			if i != j {
				c[i][j] = 1
			}
		}
	}
	ps := []int64{100, 100, 100, 100}
	nodeOf := []int{0, 0, 0, 1}
	groups := [][]int32{{0, 1}, {2, 3}}
	servers := SelectGroupServers(groups, ps, quantised(t, c), nodeOf, 2)
	if nodeOf[servers[0]] == nodeOf[servers[1]] {
		t.Fatalf("both group servers on node %d: %v", nodeOf[servers[0]], servers)
	}
}

func TestRandomGrouping(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	groups := randomGrouping(10, 4, rng)
	if len(groups) != 4 {
		t.Fatalf("groups = %d, want 4", len(groups))
	}
	seen := map[int32]bool{}
	for _, g := range groups {
		if len(g) < 2 {
			t.Fatalf("group %v smaller than 2", g)
		}
		for _, pi := range g {
			if seen[pi] {
				t.Fatalf("partition %d in two groups", pi)
			}
			seen[pi] = true
		}
	}
	if len(seen) != 10 {
		t.Fatalf("grouping covered %d of 10 partitions", len(seen))
	}
	// drp above k/2 is clamped.
	groups = randomGrouping(6, 100, rng)
	if len(groups) != 3 {
		t.Fatalf("clamped groups = %d, want 3", len(groups))
	}
}

func TestShuffleGroupsPreservesPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	groups := randomGrouping(12, 3, rng)
	sizes := make([]int, len(groups))
	for i, g := range groups {
		sizes[i] = len(g)
	}
	for round := 0; round < 5; round++ {
		ShuffleGroupsScratch(groups, rng, round, nil)
	}
	seen := map[int32]bool{}
	for i, g := range groups {
		if len(g) != sizes[i] {
			t.Fatalf("group %d size changed: %d -> %d", i, sizes[i], len(g))
		}
		for _, pi := range g {
			if seen[pi] {
				t.Fatalf("partition %d duplicated after shuffles", pi)
			}
			seen[pi] = true
		}
	}
	if len(seen) != 12 {
		t.Fatalf("shuffling lost partitions: %d of 12", len(seen))
	}
}

func TestRefineWorkedExample(t *testing.T) {
	g := exampleGraph()
	p := fig3()
	c := topology.PaperExampleMatrix()
	before := partition.CommCost(g, p, c, 1)
	orig := p.Clone()
	st, err := Refine(g, p, c, Config{DRP: 1, Shuffles: 0, Alpha: 1, MaxImbalance: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	after := partition.CommCost(g, p, c, 1) + partition.MigrationCost(g, orig, p, c)
	if after >= before {
		t.Fatalf("objective did not improve: %v -> %v (stats %+v)", before, after, st)
	}
	if st.Moves == 0 || st.Gain <= 0 {
		t.Fatalf("no gain recorded: %+v", st)
	}
	// Migration stats must agree with the metric package.
	if st.MigrationCost != partition.MigrationCost(g, orig, p, c) {
		t.Fatalf("migration cost mismatch: %v vs %v", st.MigrationCost, partition.MigrationCost(g, orig, p, c))
	}
}

func TestRefinePairCountFormula(t *testing.T) {
	// §5 Degree of Refinement Parallelism: with n partitions and m
	// groups, one round refines n(n−m)/2m pairs (evenly divisible case).
	g := gen.ErdosRenyi(400, 1600, 3)
	for _, tc := range []struct {
		k    int32
		drp  int
		want int
	}{
		{8, 2, 12}, // 8·6/4
		{8, 4, 4},  // 8·4/8
		{8, 1, 28}, // full ARAGON: 8·7/2
	} {
		p := stream.HP(g, tc.k)
		st, err := RefineUniform(g, p, Config{DRP: tc.drp, Shuffles: 0, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if st.PairsRefined != tc.want {
			t.Fatalf("k=%d drp=%d: pairs = %d, want %d", tc.k, tc.drp, st.PairsRefined, tc.want)
		}
	}
}

func TestShufflesIncreasePairCoverage(t *testing.T) {
	g := gen.ErdosRenyi(300, 1200, 4)
	p0 := stream.HP(g, 8)
	p1 := p0.Clone()
	st0, err := RefineUniform(g, p0, Config{DRP: 4, Shuffles: 0, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	st1, err := RefineUniform(g, p1, Config{DRP: 4, Shuffles: 6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if st1.PairsRefined <= st0.PairsRefined {
		t.Fatalf("shuffles did not expand coverage: %d vs %d", st1.PairsRefined, st0.PairsRefined)
	}
	if st1.Rounds != 7 || st0.Rounds != 1 {
		t.Fatalf("rounds = %d/%d", st0.Rounds, st1.Rounds)
	}
	if st1.LocationExchangeBytes != int64(g.NumVertices())*4*6 {
		t.Fatalf("exchange bytes = %d", st1.LocationExchangeBytes)
	}
}

func TestRefineImprovesArchAwareCost(t *testing.T) {
	// End-to-end: DG initial decomposition on a 2-node cluster, PARAGON
	// must reduce the architecture-aware communication cost (the Fig. 7b
	// "always below the initial decomposition" claim).
	cl := topology.PittCluster(2)
	k := 40
	c, err := cl.PartitionCostMatrix(k, 0)
	if err != nil {
		t.Fatal(err)
	}
	nodeOf, _ := cl.NodeOf(k)
	g := gen.RMAT(4000, 24000, 0.57, 0.19, 0.19, 6)
	g.UseDegreeWeights()
	p := stream.DG(g, int32(k), stream.DefaultOptions())
	before := partition.CommCost(g, p, c, 10)
	st, err := Refine(g, p, c, Config{DRP: 8, Shuffles: 4, Seed: 7, NodeOf: nodeOf})
	if err != nil {
		t.Fatal(err)
	}
	after := partition.CommCost(g, p, c, 10)
	if after >= before {
		t.Fatalf("comm cost not reduced: %.0f -> %.0f (%+v)", before, after, st)
	}
	if err := p.Validate(g); err != nil {
		t.Fatalf("refined decomposition invalid: %v", err)
	}
	// Balance must hold.
	bound := partition.BalanceBound(g, int32(k), 0.02)
	for i, w := range p.Weights(g) {
		if w > bound {
			t.Fatalf("partition %d weight %d above bound %d", i, w, bound)
		}
	}
}

func TestRefineDeterministic(t *testing.T) {
	g := gen.Mesh2D(20, 20)
	cfg := Config{DRP: 3, Shuffles: 3, Seed: 42}
	p1 := stream.DG(g, 8, stream.DefaultOptions())
	p2 := p1.Clone()
	st1, err := RefineUniform(g, p1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := RefineUniform(g, p2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for v := range p1.Assign {
		if p1.Assign[v] != p2.Assign[v] {
			t.Fatalf("nondeterministic refinement at vertex %d", v)
		}
	}
	if st1.Gain != st2.Gain || st1.Moves != st2.Moves {
		t.Fatalf("nondeterministic stats: %+v vs %+v", st1, st2)
	}
}

func TestDRP1MatchesSinglePairSemantics(t *testing.T) {
	// DRP=1 means one group holding all partitions: PARAGON degenerates
	// to ARAGON (§5). All pairs must be refined in round one.
	g := gen.ErdosRenyi(200, 800, 8)
	p := stream.HP(g, 6)
	st, err := RefineUniform(g, p, Config{DRP: 1, Shuffles: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.PairsRefined != 15 {
		t.Fatalf("pairs = %d, want C(6,2)=15", st.PairsRefined)
	}
	if st.DRP != 1 {
		t.Fatalf("effective drp = %d", st.DRP)
	}
}

func TestKHopExpandsShippedSet(t *testing.T) {
	g := gen.Mesh2D(16, 16)
	p0 := stream.DG(g, 4, stream.DefaultOptions())
	p1 := p0.Clone()
	st0, err := RefineUniform(g, p0, Config{DRP: 2, Shuffles: 0, Seed: 2, KHop: 0})
	if err != nil {
		t.Fatal(err)
	}
	st1, err := RefineUniform(g, p1, Config{DRP: 2, Shuffles: 0, Seed: 2, KHop: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st1.BoundaryShipped <= st0.BoundaryShipped {
		t.Fatalf("k-hop=2 shipped %d, k-hop=0 shipped %d — expansion missing",
			st1.BoundaryShipped, st0.BoundaryShipped)
	}
}

func TestRefineErrors(t *testing.T) {
	g := gen.ErdosRenyi(20, 40, 1)
	bad := partition.New(4, 5)
	if _, err := Refine(g, bad, topology.UniformMatrix(4), Config{}); err == nil {
		t.Fatal("expected validation error")
	}
	p := stream.HP(g, 4)
	want := p.Clone()
	if _, err := Refine(g, p, topology.UniformMatrix(2), Config{}); err == nil {
		t.Fatal("expected matrix-size error")
	}
	// Eq. 10 places every group server through NodeOf: one entry short of
	// k is refused like none at all.
	for _, nodeOf := range [][]int{{0}, {0, 0, 1}} {
		if _, err := Refine(g, p, topology.UniformMatrix(4), Config{NodeOf: nodeOf}); err == nil || !strings.Contains(err.Error(), "NodeOf has") {
			t.Fatalf("NodeOf %v for k=4: err = %v, want the NodeOf-size error", nodeOf, err)
		}
	}
	if !slices.Equal(p.Assign, want.Assign) {
		t.Fatal("a refused call moved vertices")
	}
}

func TestRefineSinglePartitionNoop(t *testing.T) {
	g := gen.ErdosRenyi(30, 60, 1)
	p := partition.New(1, g.NumVertices())
	st, err := Refine(g, p, topology.UniformMatrix(1), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Moves != 0 || st.PairsRefined != 0 {
		t.Fatalf("k=1 refinement did something: %+v", st)
	}
}

func TestUniformVariantIgnoresTopology(t *testing.T) {
	// UNIPARAGON still reduces edge cut even though it cannot see hops.
	g := gen.Mesh2D(20, 20)
	p := stream.HP(g, 8)
	before := partition.EdgeCut(g, p)
	if _, err := RefineUniform(g, p, Config{DRP: 4, Shuffles: 2, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if after := partition.EdgeCut(g, p); after >= before {
		t.Fatalf("UNIPARAGON did not cut edges: %d -> %d", before, after)
	}
}

func TestGroupMovesAreDisjoint(t *testing.T) {
	// Structural invariant behind the parallel exchange: a vertex is
	// moved by at most one group per round, because candidate membership
	// is determined by the snapshot. Detectable as: after refinement,
	// every vertex is in a valid partition and loads reconcile.
	g := gen.RMAT(1500, 9000, 0.57, 0.19, 0.19, 11)
	g.UseDegreeWeights()
	p := stream.DG(g, 12, stream.DefaultOptions())
	if _, err := RefineUniform(g, p, Config{DRP: 6, Shuffles: 5, Seed: 13}); err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, w := range p.Weights(g) {
		total += w
	}
	if total != g.TotalVertexWeight() {
		t.Fatal("weight not conserved across parallel rounds")
	}
}

func TestStatsVolumeAccounting(t *testing.T) {
	g := gen.Mesh2D(12, 12)
	p := stream.DG(g, 4, stream.DefaultOptions())
	st, err := RefineUniform(g, p, Config{DRP: 2, Shuffles: 1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if st.BoundaryShipped <= 0 || st.ShippedEdgeVolume < st.BoundaryShipped {
		t.Fatalf("implausible shipping stats: %+v", st)
	}
	if st.ExchangeRegions != 1 {
		t.Fatalf("regions = %d, want 1 for a small graph", st.ExchangeRegions)
	}
	if len(st.GroupServers) != st.Rounds {
		t.Fatalf("group servers recorded for %d rounds, want %d", len(st.GroupServers), st.Rounds)
	}
}

func TestRegionChunking(t *testing.T) {
	g := gen.ErdosRenyi(1000, 3000, 9)
	p := stream.HP(g, 4)
	setRegionSize(t, 300)
	st, err := RefineUniform(g, p, Config{DRP: 2, Shuffles: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if st.ExchangeRegions != 4 { // ceil(1000/300)
		t.Fatalf("regions = %d, want 4", st.ExchangeRegions)
	}
}

// Property: Refine preserves decomposition validity, weight conservation,
// and never worsens the comm+migration objective, across random graphs,
// k, drp, and shuffle counts.
func TestQuickRefineInvariants(t *testing.T) {
	f := func(seed int64, kRaw, drpRaw, shRaw uint8) bool {
		k := int32(kRaw%10) + 2
		drp := int(drpRaw%5) + 1
		sh := int(shRaw % 4)
		g := gen.ErdosRenyi(200, 700, seed)
		g.UseDegreeWeights()
		p := stream.LDG(g, k, stream.DefaultOptions())
		orig := p.Clone()
		cl := topology.GordonCluster(4)
		c := make([][]float64, k)
		for i := range c {
			c[i] = make([]float64, k)
			for j := range c[i] {
				c[i][j] = cl.Cost(int(i)*5%cl.TotalCores(), int(j)*5%cl.TotalCores())
			}
		}
		before := partition.CommCost(g, p, c, 10)
		st, err := Refine(g, p, c, Config{DRP: drp, Shuffles: sh, Seed: seed})
		if err != nil {
			t.Logf("refine error: %v", err)
			return false
		}
		if err := p.Validate(g); err != nil {
			return false
		}
		after := partition.CommCost(g, p, c, 10) + partition.MigrationCost(g, orig, p, c)
		if after > before+1e-6 {
			t.Logf("objective rose %v -> %v (%+v)", before, after, st)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestRoundGainsRecorded(t *testing.T) {
	g := gen.Mesh2D(16, 16)
	p := stream.HP(g, 6)
	st, err := RefineUniform(g, p, Config{DRP: 3, Shuffles: 4, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.RoundGains) != st.Rounds {
		t.Fatalf("round gains for %d of %d rounds", len(st.RoundGains), st.Rounds)
	}
	var sum float64
	for _, rg := range st.RoundGains {
		if rg < 0 {
			t.Fatalf("negative round gain %v", rg)
		}
		sum += rg
	}
	if sum != st.Gain {
		t.Fatalf("round gains sum %v != total %v", sum, st.Gain)
	}
}
