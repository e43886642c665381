package metis

import (
	"testing"

	"paragon/internal/gen"
	"paragon/internal/partition"
	"paragon/internal/stream"
)

func TestPartitionKWayBasic(t *testing.T) {
	g := gen.Mesh2D(32, 32)
	p := PartitionKWay(g, 8, Options{Seed: 1})
	if err := p.Validate(g); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	for i, c := range p.Counts(g) {
		if c == 0 {
			t.Fatalf("partition %d empty", i)
		}
	}
	if s := partition.Skewness(g, p); s > 1.4 {
		t.Fatalf("skewness %.3f", s)
	}
}

func TestPartitionKWayQualityNearRB(t *testing.T) {
	g := gen.Mesh2D(40, 40)
	g.UseDegreeWeights()
	rb := Partition(g, 16, Options{Seed: 2})
	kw := PartitionKWay(g, 16, Options{Seed: 2})
	cutRB := partition.EdgeCut(g, rb)
	cutKW := partition.EdgeCut(g, kw)
	// Direct k-way is allowed to trade some quality; it must stay in the
	// same ballpark (≤ 1.8× RB) and far below hashing.
	if cutKW > cutRB*18/10 {
		t.Fatalf("k-way cut %d too far above RB cut %d", cutKW, cutRB)
	}
	hp := stream.HP(g, 16)
	if cutKW >= partition.EdgeCut(g, hp) {
		t.Fatalf("k-way cut %d not below hashing %d", cutKW, partition.EdgeCut(g, hp))
	}
}

func TestPartitionKWayEdgeCases(t *testing.T) {
	g := gen.ErdosRenyi(60, 150, 3)
	p1 := PartitionKWay(g, 1, Options{})
	for _, a := range p1.Assign {
		if a != 0 {
			t.Fatal("k=1 must be all zero")
		}
	}
	// Tiny graph, no coarsening possible.
	small := gen.ErdosRenyi(30, 60, 4)
	p := PartitionKWay(small, 4, Options{Seed: 5})
	if err := p.Validate(small); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k < 1")
		}
	}()
	PartitionKWay(g, 0, Options{})
}

func TestKWayRefineImprovesCut(t *testing.T) {
	g := gen.Mesh2D(24, 24)
	p := stream.HP(g, 4)
	before := partition.EdgeCut(g, p)
	bound := partition.BalanceBound(g, 4, 0.1)
	RefineKWay(g, p, bound, 6)
	after := partition.EdgeCut(g, p)
	if after >= before {
		t.Fatalf("k-way refine did not improve: %d -> %d", before, after)
	}
	for i, w := range p.Weights(g) {
		if w > bound {
			t.Fatalf("partition %d weight %d above bound %d", i, w, bound)
		}
	}
}

func TestKWayFasterAtLargeK(t *testing.T) {
	// The point of direct k-way: one coarsening instead of k-1. We don't
	// time (flaky); instead verify both run and produce valid results at
	// k=64 on a mid-size graph.
	g := gen.RMAT(8000, 40000, 0.57, 0.19, 0.19, 6)
	g.UseDegreeWeights()
	kw := PartitionKWay(g, 64, Options{Seed: 7})
	if err := kw.Validate(g); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	nonEmpty := 0
	for _, c := range kw.Counts(g) {
		if c > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 60 {
		t.Fatalf("only %d of 64 partitions populated", nonEmpty)
	}
}
