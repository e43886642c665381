package paragon

import (
	"testing"

	"paragon/internal/gen"
	"paragon/internal/partition"
	"paragon/internal/stream"
	"paragon/internal/topology"
)

// RefineIndexed with a fresh BuildIndex must be bit-identical to Refine:
// the index handoff changes who pays for the build, never the moves.
func TestRefineIndexedMatchesRefine(t *testing.T) {
	g := gen.RMAT(3000, 15000, 0.57, 0.19, 0.19, 21)
	g.UseDegreeWeights()
	const k = 12
	c := topology.UniformMatrix(k)
	cfg := DefaultConfig()
	cfg.Seed = 5
	cfg.Workers = 2

	pA := stream.DG(g, k, stream.DefaultOptions())
	pB := pA.Clone()

	stA, err := Refine(g, pA, c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ix := partition.BuildIndex(g, pB)
	stB, err := RefineIndexed(g, pB, c, cfg, ix)
	if err != nil {
		t.Fatal(err)
	}

	for v := range pA.Assign {
		if pA.Assign[v] != pB.Assign[v] {
			t.Fatalf("vertex %d: Refine chose %d, RefineIndexed chose %d", v, pA.Assign[v], pB.Assign[v])
		}
	}
	if stA.Moves != stB.Moves || stA.Gain != stB.Gain {
		t.Fatalf("stats diverged: Refine %d moves gain %v, RefineIndexed %d moves gain %v",
			stA.Moves, stA.Gain, stB.Moves, stB.Gain)
	}

	// The barrier commits must leave the caller's index consistent with the
	// refined decomposition — the property the session's epoch reuse
	// depends on.
	if err := ix.Validate(); err != nil {
		t.Fatalf("index inconsistent after RefineIndexed: %v", err)
	}
}

// A second RefineIndexed over the same live index must behave like a
// fresh Refine from the intermediate state: epoch-to-epoch reuse.
func TestRefineIndexedReuseAcrossCalls(t *testing.T) {
	g := gen.RMAT(2000, 9000, 0.57, 0.19, 0.19, 33)
	const k = 8
	c := topology.UniformMatrix(k)
	cfg := DefaultConfig()
	cfg.Seed = 7

	p := stream.DG(g, k, stream.DefaultOptions())
	ix := partition.BuildIndex(g, p)
	if _, err := RefineIndexed(g, p, c, cfg, ix); err != nil {
		t.Fatal(err)
	}
	pRef := p.Clone()
	cfg2 := cfg
	cfg2.Seed = 19
	if _, err := Refine(g, pRef, c, cfg2); err != nil {
		t.Fatal(err)
	}
	if _, err := RefineIndexed(g, p, c, cfg2, ix); err != nil {
		t.Fatal(err)
	}
	for v := range p.Assign {
		if p.Assign[v] != pRef.Assign[v] {
			t.Fatalf("vertex %d diverged on the second indexed call", v)
		}
	}
	if err := ix.Validate(); err != nil {
		t.Fatalf("index inconsistent after second call: %v", err)
	}
}

func TestRefineIndexedRejectsMismatches(t *testing.T) {
	g := gen.Mesh2D(10, 10)
	const k = 4
	c := topology.UniformMatrix(k)
	cfg := DefaultConfig()
	p := stream.DG(g, k, stream.DefaultOptions())

	if _, err := RefineIndexed(g, p, c, cfg, nil); err == nil {
		t.Fatal("nil index accepted")
	}
	other := p.Clone()
	ix := partition.BuildIndex(g, other)
	if _, err := RefineIndexed(g, p, c, cfg, ix); err == nil {
		t.Fatal("index over a different partitioning accepted")
	}
	g2 := gen.Mesh2D(10, 10)
	ix2 := partition.BuildIndex(g, p)
	if _, err := RefineIndexed(g2, p, c, cfg, ix2); err == nil {
		t.Fatal("index over a different graph snapshot accepted")
	}
}
