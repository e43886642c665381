package partition

import (
	"slices"
	"testing"
)

// drain pops every valid entry of h and returns the ids in pop order.
func drain(h *GainHeap, gains []int64, done []bool) []int32 {
	var ids []int32
	for {
		id, g, ok := h.PopValid(gains, done)
		if !ok {
			return ids
		}
		if g != gains[id] {
			panic("PopValid returned a stale entry")
		}
		ids = append(ids, id)
	}
}

func TestGainHeap(t *testing.T) {
	// Distinct gains pop in descending order.
	gains := []int64{15, -3, 80, 0}
	var h GainHeap
	for i, g := range gains {
		h.Push(int32(i), g)
	}
	if got, want := drain(&h, gains, make([]bool, len(gains))), []int32{2, 0, 3, 1}; !slices.Equal(got, want) {
		t.Fatalf("pop order %v, want %v", got, want)
	}

	// Ties break by heap structure, not by push order: Push stops sifting
	// up on >=, a pop sifts down only past a strictly larger child. Both FM
	// kernels' goldens depend on exactly these sequences.
	for _, tc := range []struct {
		gains []int64
		want  []int32
	}{
		{[]int64{4, 4, 4, 4, 4, 4, 4}, []int32{0, 6, 5, 4, 3, 2, 1}},
		{[]int64{5, -2, 9, 0, 9, 3, 5, 9}, []int32{2, 4, 7, 6, 0, 5, 3, 1}},
	} {
		h.Reset()
		for i, g := range tc.gains {
			h.Push(int32(i), g)
		}
		if got := drain(&h, tc.gains, make([]bool, len(tc.gains))); !slices.Equal(got, tc.want) {
			t.Fatalf("gains %v: pop order %v, want %v", tc.gains, got, tc.want)
		}
	}

	// A re-evaluation pushes a duplicate; the stale entry is skipped even
	// when it outranks the fresh one, and so is a done id.
	h.Reset()
	h.Push(0, 7)
	h.Push(0, 3)
	h.Push(1, 5)
	cur := []int64{3, 5}
	if got, want := drain(&h, cur, []bool{false, true}), []int32{0}; !slices.Equal(got, want) {
		t.Fatalf("lazy skip popped %v, want %v", got, want)
	}
	if h.Len() != 0 {
		t.Fatalf("heap holds %d entries after running dry", h.Len())
	}
}
