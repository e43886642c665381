package partition

import (
	"slices"
	"testing"

	"paragon/internal/gen"
	"paragon/internal/graph"
)

// TestBitsetExpandMatchesExpandFrontier: the mask-as-visited-set search
// reaches exactly the vertices the map-and-sort oracle does and lists each
// once, seeds first.
func TestBitsetExpandMatchesExpandFrontier(t *testing.T) {
	g := gen.RMAT(1500, 6000, 0.57, 0.19, 0.19, 3)
	seeds := []int32{7, 300, 301, 1499}
	for hops := 0; hops <= 3; hops++ {
		b := NewBitset(g.NumVertices())
		list := b.Expand(g, slices.Clone(seeds), hops)
		if !slices.Equal(list[:len(seeds)], seeds) {
			t.Fatalf("hops=%d: list starts %v, want the seeds", hops, list[:len(seeds)])
		}
		want := graph.ExpandFrontier(g, seeds, hops, nil)
		if got := b.AppendSet(nil); !slices.Equal(got, want) {
			t.Fatalf("hops=%d: %d bits set, the oracle reaches %d", hops, len(got), len(want))
		}
		slices.Sort(list)
		if !slices.Equal(list, want) {
			t.Fatalf("hops=%d: the list is not the set bits, each once", hops)
		}
		// A second expansion from inside the set finds nothing new.
		if again := b.Expand(g, nil, hops); len(again) != 0 {
			t.Fatalf("hops=%d: an empty seed list grew to %d", hops, len(again))
		}
	}
}
