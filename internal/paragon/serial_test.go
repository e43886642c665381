package paragon

import (
	"math/rand"
	"testing"
	"testing/quick"

	"paragon/internal/aragon"
	"paragon/internal/gen"
	"paragon/internal/partition"
	"paragon/internal/stream"
	"paragon/internal/topology"
)

// The serial ARAGON sweep's behavioural tests, on the paper's worked
// example (exampleGraph, fig3) and on generated graphs.

func TestRefineFullImprovesObjective(t *testing.T) {
	g := exampleGraph()
	p := fig3()
	orig := fig3()
	c := topology.PaperExampleMatrix()
	cfg := aragon.Config{Alpha: 1, MaxImbalance: 0.3}
	before := partition.CommCost(g, p, c, 1)
	res, err := RefineSerial(g, p, c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	after := partition.CommCost(g, p, c, 1) + partition.MigrationCost(g, orig, p, c)
	if after > before {
		t.Fatalf("objective rose: %v -> %v (result %+v)", before, after, res)
	}
	if res.PairsSeen != 3 {
		t.Fatalf("pairs seen = %d, want 3 for k=3", res.PairsSeen)
	}
}

func TestRefineSerialErrors(t *testing.T) {
	g := exampleGraph()
	bad := partition.New(3, 4)
	if _, err := RefineSerial(g, bad, topology.PaperExampleMatrix(), aragon.Config{}); err == nil {
		t.Fatal("expected validation error")
	}
	p := fig3()
	if _, err := RefineSerial(g, p, topology.UniformMatrix(2), aragon.Config{}); err == nil {
		t.Fatal("expected small-matrix error")
	}
}

func TestRefineUniformCostsReducesEdgeCut(t *testing.T) {
	// With a uniform matrix ARAGON degenerates toward standard FM: it
	// must not worsen the plain edge cut objective (comm+migration).
	g := gen.Mesh2D(20, 20)
	g.UseDegreeWeights()
	p := stream.HP(g, 4)
	orig := p.Clone()
	c := topology.UniformMatrix(4)
	alpha := 10.0
	before := partition.CommCost(g, p, c, alpha)
	if _, err := RefineSerial(g, p, c, aragon.Config{Alpha: alpha}); err != nil {
		t.Fatal(err)
	}
	after := partition.CommCost(g, p, c, alpha) + partition.MigrationCost(g, orig, p, c)
	if after > before {
		t.Fatalf("uniform refinement worsened objective: %v -> %v", before, after)
	}
	if partition.EdgeCut(g, p) >= partition.EdgeCut(g, orig) {
		t.Fatalf("edge cut did not improve from hashing: %d vs %d",
			partition.EdgeCut(g, p), partition.EdgeCut(g, orig))
	}
}

func TestRefineArchitectureAwareBeatsUniformOnHopCost(t *testing.T) {
	// The core claim: refining against the real cost matrix yields lower
	// architecture-aware communication cost than refining against the
	// uniform matrix (UNIPARAGON), measured on the real matrix.
	cl := topology.PittCluster(2) // 40 cores
	k := int32(8)
	// Use an 8-rank submatrix spanning both nodes: ranks 0..3 node 0,
	// ranks 20..23 node 1.
	ranks := []int{0, 1, 2, 3, 20, 21, 22, 23}
	c := make([][]float64, k)
	for i := range c {
		c[i] = make([]float64, k)
		for j := range c[i] {
			c[i][j] = cl.Cost(ranks[i], ranks[j])
		}
	}
	g := gen.RMAT(2000, 10000, 0.57, 0.19, 0.19, 13)
	g.UseDegreeWeights()
	alpha := 10.0

	pAware := stream.DG(g, k, stream.DefaultOptions())
	pUni := pAware.Clone()
	if _, err := RefineSerial(g, pAware, c, aragon.Config{Alpha: alpha}); err != nil {
		t.Fatal(err)
	}
	if _, err := RefineSerial(g, pUni, topology.UniformMatrix(int(k)), aragon.Config{Alpha: alpha}); err != nil {
		t.Fatal(err)
	}
	costAware := partition.CommCost(g, pAware, c, alpha)
	costUni := partition.CommCost(g, pUni, c, alpha)
	if costAware >= costUni {
		t.Fatalf("architecture-aware refinement (%.0f) not below uniform refinement (%.0f) on the real matrix",
			costAware, costUni)
	}
}

func TestRefinePreservesVertexSet(t *testing.T) {
	g := gen.BarabasiAlbert(800, 3, 21)
	g.UseDegreeWeights()
	p := stream.DG(g, 6, stream.DefaultOptions())
	cl := topology.PittCluster(1)
	c := make([][]float64, 6)
	for i := range c {
		c[i] = make([]float64, 6)
		for j := range c[i] {
			c[i][j] = cl.Cost(i, j)
		}
	}
	if _, err := RefineSerial(g, p, c, aragon.Config{}); err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(g); err != nil {
		t.Fatalf("refined decomposition invalid: %v", err)
	}
	var total int64
	for _, w := range p.Weights(g) {
		total += w
	}
	if total != g.TotalVertexWeight() {
		t.Fatal("vertex weight lost during refinement")
	}
}

func TestRefineKeepsBalanceBound(t *testing.T) {
	g := gen.Mesh2D(24, 24)
	p := stream.DG(g, 4, stream.DefaultOptions())
	eps := 0.05
	bound := partition.BalanceBound(g, 4, eps)
	// Precondition: initial decomposition within bound.
	for _, w := range p.Weights(g) {
		if w > bound {
			t.Skip("initial decomposition exceeds bound; balance invariant untestable")
		}
	}
	if _, err := RefineSerial(g, p, topology.UniformMatrix(4), aragon.Config{MaxImbalance: eps}); err != nil {
		t.Fatal(err)
	}
	for i, w := range p.Weights(g) {
		if w > bound {
			t.Fatalf("partition %d weight %d exceeds bound %d after refinement", i, w, bound)
		}
	}
}

// Property: RefineSerial never increases the combined objective
// comm(new) + mig(orig→new), never violates the balance bound it is
// given (when the input satisfies it), and always yields a valid
// decomposition.
func TestQuickRefineSerialInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.ErdosRenyi(250, 900, seed)
		g.UseDegreeWeights()
		k := int32(rng.Intn(5) + 2)
		p := stream.LDG(g, k, stream.DefaultOptions())
		orig := p.Clone()
		cl := topology.GordonCluster(2)
		c := make([][]float64, k)
		for i := range c {
			c[i] = make([]float64, k)
			for j := range c[i] {
				c[i][j] = cl.Cost(int(i)*3%cl.TotalCores(), int(j)*3%cl.TotalCores())
			}
		}
		alpha := 10.0
		before := partition.CommCost(g, p, c, alpha)
		if _, err := RefineSerial(g, p, c, aragon.Config{Alpha: alpha, MaxImbalance: 0.1}); err != nil {
			return false
		}
		if err := p.Validate(g); err != nil {
			return false
		}
		after := partition.CommCost(g, p, c, alpha) + partition.MigrationCost(g, orig, p, c)
		return after <= before+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}
