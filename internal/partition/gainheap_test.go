package partition

import (
	"fmt"
	"math/rand"
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

// swapHeap is the two-slice, swap-sifting GainHeap the interleaved one
// replaced, kept as the reference its arrays are held to.
type swapHeap struct {
	id []int32
	g  []int64
}

func (h *swapHeap) push(id int32, gain int64) {
	h.id = append(h.id, id)
	h.g = append(h.g, gain)
	c := len(h.id) - 1
	for c > 0 {
		p := (c - 1) / 2
		if h.g[p] >= h.g[c] {
			break
		}
		h.swap(p, c)
		c = p
	}
}

func (h *swapHeap) pop() (int32, int64) {
	id, g := h.id[0], h.g[0]
	last := len(h.id) - 1
	h.id[0], h.g[0] = h.id[last], h.g[last]
	h.id, h.g = h.id[:last], h.g[:last]
	c := 0
	for {
		l, r, s := 2*c+1, 2*c+2, c
		if l < last && h.g[l] > h.g[s] {
			s = l
		}
		if r < last && h.g[r] > h.g[s] {
			s = r
		}
		if s == c {
			break
		}
		h.swap(c, s)
		c = s
	}
	return id, g
}

func (h *swapHeap) popValid(gains []int64, done []bool) (int32, int64, bool) {
	for len(h.id) > 0 {
		id, gain := h.pop()
		if done[id] || gains[id] != gain {
			continue
		}
		return id, gain, true
	}
	return 0, 0, false
}

func (h *swapHeap) swap(i, j int) {
	h.id[i], h.id[j] = h.id[j], h.id[i]
	h.g[i], h.g[j] = h.g[j], h.g[i]
}

// sameArray fails unless h and ref hold equal (id, gain) at every index.
func sameArray(t *testing.T, step string, h *GainHeap, ref *swapHeap) {
	t.Helper()
	if h.Len() != len(ref.id) {
		t.Fatalf("%s: %d entries, reference %d", step, h.Len(), len(ref.id))
	}
	for i, x := range h.e {
		if x.id != ref.id[i] || x.g != ref.g[i] {
			t.Fatalf("%s: index %d holds (%d, %d), reference (%d, %d)", step, i, x.id, x.g, ref.id[i], ref.g[i])
		}
	}
}

// TestGainHeapMatchesSwapReference drives the hole-sifting heap and the
// swap-sifting reference with the same random interleavings of Push,
// PushAll and PopValid — gains from a small range so most compare equal,
// re-pushed ids that leave stale duplicates, done ids — and demands the
// same array after every operation. PushAll must also build exactly the
// array of one Push per gain in ascending id.
func TestGainHeapMatchesSwapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pops := 0
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(60)
		spread := int64(1 + rng.Intn(6))
		gains := make([]int64, n)
		done := make([]bool, n)
		var h GainHeap
		var ref swapHeap
		for op := 0; op < 300; op++ {
			switch r := rng.Intn(10); {
			case r < 4:
				id := rng.Int31n(int32(n))
				gains[id] = rng.Int63n(spread) - spread/2
				h.Push(id, gains[id])
				ref.push(id, gains[id])
			case r < 5:
				for i := range gains {
					gains[i] = rng.Int63n(spread) - spread/2
				}
				if rng.Intn(2) == 0 {
					h.Reset()
					ref.id, ref.g = ref.id[:0], ref.g[:0]
					clear(done)
				}
				h.PushAll(gains)
				for i, g := range gains {
					ref.push(int32(i), g)
				}
			case r < 6:
				done[rng.Intn(n)] = true
			default:
				id, g, ok := h.PopValid(gains, done)
				rid, rg, rok := ref.popValid(gains, done)
				if id != rid || g != rg || ok != rok {
					t.Fatalf("trial %d op %d: PopValid (%d, %d, %v), reference (%d, %d, %v)", trial, op, id, g, ok, rid, rg, rok)
				}
				if ok {
					pops++
				}
			}
			sameArray(t, fmt.Sprintf("trial %d op %d", trial, op), &h, &ref)
		}

		// PushAll on an empty heap is len(gains) Pushes.
		var bulk, one GainHeap
		bulk.PushAll(gains)
		for i, g := range gains {
			one.Push(int32(i), g)
		}
		if !slices.Equal(bulk.e, one.e) {
			t.Fatalf("trial %d: PushAll built %v, Push calls %v", trial, bulk.e, one.e)
		}
	}
	if pops < 5000 {
		t.Fatalf("%d valid pops over all trials: the comparison is near-vacuous", pops)
	}
}
