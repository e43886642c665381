package stream

import (
	"testing"
	"testing/quick"

	"paragon/internal/gen"
	"paragon/internal/graph"
	"paragon/internal/partition"
)

func TestHPCoversAllPartitions(t *testing.T) {
	g := gen.ErdosRenyi(1000, 3000, 1)
	p := HP(g, 8)
	if err := p.Validate(g); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	counts := p.Counts(g)
	for i, c := range counts {
		if c == 0 {
			t.Fatalf("partition %d empty under hashing", i)
		}
	}
	// Hashing is roughly uniform: no partition should be more than 2x avg.
	avg := float64(g.NumVertices()) / 8
	for i, c := range counts {
		if float64(c) > 2*avg || float64(c) < avg/2 {
			t.Fatalf("partition %d has %d vertices, avg %.0f — hash too skewed", i, c, avg)
		}
	}
}

func TestHPDeterministic(t *testing.T) {
	g := gen.ErdosRenyi(300, 900, 2)
	p1, p2 := HP(g, 5), HP(g, 5)
	for v := range p1.Assign {
		if p1.Assign[v] != p2.Assign[v] {
			t.Fatal("HP must be deterministic")
		}
	}
}

func TestHPPanicsOnBadK(t *testing.T) {
	g := gen.ErdosRenyi(10, 20, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	HP(g, 0)
}

func TestDGBeatsHPOnCut(t *testing.T) {
	// A mesh has strong locality; greedy streaming must cut far fewer
	// edges than hashing (the whole premise of Figure 9).
	g := gen.Mesh2D(40, 40)
	hp := HP(g, 4)
	dg := DG(g, 4, DefaultOptions())
	cutHP := partition.EdgeCut(g, hp)
	cutDG := partition.EdgeCut(g, dg)
	if cutDG >= cutHP {
		t.Fatalf("DG cut %d not below HP cut %d", cutDG, cutHP)
	}
}

func TestLDGBalanced(t *testing.T) {
	g := gen.RMAT(2000, 10000, 0.57, 0.19, 0.19, 5)
	g.UseDegreeWeights()
	p := LDG(g, 8, DefaultOptions())
	if err := p.Validate(g); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// LDG's defining property: it respects the capacity bound closely.
	// The final fallback can overflow slightly; allow a small margin.
	bound := partition.BalanceBound(g, 8, 0.02)
	for i, w := range p.Weights(g) {
		if float64(w) > float64(bound)*1.15 {
			t.Fatalf("partition %d weight %d far above bound %d", i, w, bound)
		}
	}
}

func TestDGRespectsCapacityOnUniform(t *testing.T) {
	g := gen.ErdosRenyi(1200, 4000, 9)
	p := DG(g, 6, DefaultOptions())
	bound := partition.BalanceBound(g, 6, 0.02)
	for i, w := range p.Weights(g) {
		if float64(w) > float64(bound)*1.15 {
			t.Fatalf("partition %d weight %d above bound %d", i, w, bound)
		}
	}
}

func TestGreedyAssignsEveryVertex(t *testing.T) {
	g := gen.BarabasiAlbert(500, 3, 4)
	for _, p := range []*partition.Partitioning{
		DG(g, 7, DefaultOptions()),
		LDG(g, 7, DefaultOptions()),
	} {
		for v, a := range p.Assign {
			if a < 0 || a >= 7 {
				t.Fatalf("vertex %d unassigned (%d)", v, a)
			}
		}
	}
}

func TestShuffleChangesResult(t *testing.T) {
	g := gen.Mesh2D(30, 30)
	nat := DG(g, 4, Options{Eps: 0.02})
	shuf := DG(g, 4, Options{Eps: 0.02, Order: OrderRandom, Seed: 99})
	diff := 0
	for v := range nat.Assign {
		if nat.Assign[v] != shuf.Assign[v] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("shuffled stream order should change the decomposition")
	}
}

func TestSingletonPartition(t *testing.T) {
	g := gen.ErdosRenyi(50, 100, 3)
	p := DG(g, 1, DefaultOptions())
	for _, a := range p.Assign {
		if a != 0 {
			t.Fatal("k=1 must place everything in partition 0")
		}
	}
}

func TestWeightedStreamRespectsVertexWeights(t *testing.T) {
	// One very heavy vertex: DG must not pack its whole neighborhood
	// into the same partition when the capacity bound forbids it.
	b := graph.NewBuilder(10)
	for v := int32(1); v < 10; v++ {
		b.AddEdge(0, v)
	}
	b.SetVertexWeight(0, 50)
	g := b.Build()
	p := DG(g, 2, Options{Eps: 0.0})
	w := p.Weights(g)
	// total weight 59, bound ceil(59/2)=30: partition with vertex 0
	// (w=50) exceeds any bound alone, but the remaining 9 unit vertices
	// must all land in the other partition.
	other := 1 - p.Assign[0]
	if w[other] != 9 {
		t.Fatalf("light vertices not diverted: weights %v, heavy in %d", w, p.Assign[0])
	}
}

// Property: streaming partitioners always produce valid decompositions
// with every vertex assigned, regardless of graph shape or k.
func TestQuickStreamValid(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		k := int32(kRaw%15) + 1
		g := gen.RMAT(300, 1200, 0.5, 0.2, 0.2, seed)
		for _, p := range []*partition.Partitioning{
			HP(g, k),
			DG(g, k, DefaultOptions()),
			LDG(g, k, DefaultOptions()),
		} {
			if err := p.Validate(g); err != nil {
				t.Logf("invalid: %v", err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
