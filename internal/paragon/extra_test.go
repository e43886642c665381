package paragon

import (
	"testing"

	"paragon/internal/gen"
	"paragon/internal/partition"
	"paragon/internal/stream"
	"paragon/internal/topology"
)

// Additional PARAGON behaviors not covered by the main test file.

func TestKHopRefinementStaysValid(t *testing.T) {
	// k-hop > 0 admits near-boundary interior vertices; the result must
	// remain a valid, balanced decomposition and the objective must not
	// regress versus k=0 by more than noise (the paper found quality
	// insensitive to k).
	g := gen.RMAT(2500, 15000, 0.57, 0.19, 0.19, 31)
	g.UseDegreeWeights()
	c := topology.UniformMatrix(8)
	initial := stream.DG(g, 8, stream.DefaultOptions())
	base := partition.CommCost(g, initial, c, 10)
	var costs [3]float64
	for k := 0; k <= 2; k++ {
		p := initial.Clone()
		if _, err := Refine(g, p, c, Config{DRP: 4, Shuffles: 2, Seed: 3, KHop: k}); err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(g); err != nil {
			t.Fatalf("k=%d invalid: %v", k, err)
		}
		costs[k] = partition.CommCost(g, p, c, 10)
		if costs[k] >= base {
			t.Fatalf("k=%d did not improve: %v vs %v", k, costs[k], base)
		}
	}
	// All three within 10% of each other (insensitivity claim).
	for k := 1; k <= 2; k++ {
		ratio := costs[k] / costs[0]
		if ratio < 0.9 || ratio > 1.1 {
			t.Fatalf("k=%d quality %v diverges from k=0 %v", k, costs[k], costs[0])
		}
	}
}

func TestMasterSelectionTieBreaksLow(t *testing.T) {
	// Uniform matrix: all masters cost the same; the lowest id must win
	// (determinism without synchronization, §5).
	if m := selectMaster(quantised(t, topology.UniformMatrix(5))); m != 0 {
		t.Fatalf("master = %d, want 0 on ties", m)
	}
}

func TestSelectGroupServersPrefersOwnPartition(t *testing.T) {
	// A group member costs nothing to host its own partition's data, so
	// with heterogeneous costs a member of the group should win.
	cl := topology.PittCluster(2)
	k := 8
	ranks := []int{0, 1, 2, 3, 20, 21, 22, 23} // split across nodes
	c := make([][]float64, k)
	for i := range c {
		c[i] = make([]float64, k)
		for j := range c[i] {
			c[i][j] = cl.Cost(ranks[i], ranks[j])
		}
	}
	ps := []int64{100, 100, 100, 100, 100, 100, 100, 100}
	groups := [][]int32{{0, 1, 2, 3}, {4, 5, 6, 7}}
	servers := SelectGroupServers(groups, ps, quantised(t, c), nil, 2)
	inGroup := func(s int32, grp []int32) bool {
		for _, p := range grp {
			if p == s {
				return true
			}
		}
		return false
	}
	for gi, grp := range groups {
		if !inGroup(servers[gi], grp) {
			t.Fatalf("group %d server %d outside the group %v", gi, servers[gi], grp)
		}
	}
}

func TestRefineWithContentionMatrixShiftsCut(t *testing.T) {
	// λ=1 on a 2-node cluster must push more cut weight onto inter-node
	// pairs than λ=0 refinement does (the §6 offloading effect).
	cl := topology.PittCluster(2)
	k := 40
	g := gen.RMAT(4000, 24000, 0.57, 0.19, 0.19, 8)
	g.UseDegreeWeights()
	initial := stream.DG(g, int32(k), stream.DefaultOptions())
	nodeOf, _ := cl.NodeOf(k)

	interNodeCut := func(lambda float64) int64 {
		c, err := cl.PartitionCostMatrix(k, lambda)
		if err != nil {
			t.Fatal(err)
		}
		p := initial.Clone()
		if _, err := Refine(g, p, c, Config{DRP: 8, Shuffles: 4, Seed: 6, NodeOf: nodeOf}); err != nil {
			t.Fatal(err)
		}
		return partition.HopCut(g, p, func(i, j int32) int {
			if nodeOf[i] != nodeOf[j] {
				return 1
			}
			return 0
		})
	}
	flat := interNodeCut(0)
	penalized := interNodeCut(1)
	if penalized <= flat {
		t.Fatalf("λ=1 inter-node cut %d not above λ=0's %d — offloading effect missing", penalized, flat)
	}
}

// setRegionSize lowers the location-exchange region for the rest of the
// test. It writes a package variable, so its callers must not run in
// parallel.
func setRegionSize(t *testing.T, size int64) {
	old := maxRegionSize
	maxRegionSize = size
	t.Cleanup(func() { maxRegionSize = old })
}

func TestRegionSizeDoesNotChangeResult(t *testing.T) {
	// The region size only affects exchange accounting, never the refinement.
	g := gen.Mesh2D(16, 16)
	p1 := stream.DG(g, 6, stream.DefaultOptions())
	p2 := p1.Clone()
	if _, err := RefineUniform(g, p1, Config{DRP: 3, Shuffles: 2, Seed: 4}); err != nil {
		t.Fatal(err)
	}
	setRegionSize(t, 17)
	st, err := RefineUniform(g, p2, Config{DRP: 3, Shuffles: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if st.ExchangeRegions < 2 {
		t.Fatalf("regions = %d, want several at region size 17", st.ExchangeRegions)
	}
	for v := range p1.Assign {
		if p1.Assign[v] != p2.Assign[v] {
			t.Fatal("the region size changed the refinement result")
		}
	}
}
