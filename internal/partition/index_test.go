package partition

import (
	"math/rand"
	"slices"
	"testing"

	"paragon/internal/gen"
	"paragon/internal/graph"
)

// randomPartitioning assigns every vertex uniformly at random.
func randomPartitioning(g *graph.Graph, k int32, rng *rand.Rand) *Partitioning {
	p := New(k, g.NumVertices())
	for v := range p.Assign {
		p.Assign[v] = rng.Int31n(k)
	}
	return p
}

// scanPairCandidates is the historical O(|V|) candidate enumeration the
// index replaced: scan every vertex, keep members of the pair that are
// movable. The index must reproduce its output exactly.
func scanPairCandidates(g *graph.Graph, p *Partitioning, pi, pj int32, allowed *Bitset) []int32 {
	var out []int32
	for v := int32(0); v < g.NumVertices(); v++ {
		pv := p.Assign[v]
		if pv != pi && pv != pj {
			continue
		}
		if allowed != nil {
			if allowed.Get(v) {
				out = append(out, v)
			}
		} else if IsBoundary(g, p, v) {
			out = append(out, v)
		}
	}
	return out
}

func TestIndexMatchesScanOnRandomGraphs(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"er", gen.ErdosRenyi(400, 1600, 1)},
		{"ba", gen.BarabasiAlbert(300, 3, 2)},
		{"mesh", gen.Mesh2D(15, 15)},
	}
	for _, tc := range graphs {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			const k = 7
			p := randomPartitioning(tc.g, k, rng)
			ix := BuildIndex(tc.g, p)
			allowed := NewBitset(tc.g.NumVertices())
			for v := int32(0); v < allowed.Len(); v++ {
				allowed.SetTo(v, rng.Intn(3) != 0)
			}
			check := func() {
				t.Helper()
				for pi := int32(0); pi < k; pi++ {
					for pj := pi + 1; pj < k; pj++ {
						want := scanPairCandidates(tc.g, p, pi, pj, nil)
						got := ix.AppendPairCandidates(nil, pi, pj, nil)
						if !slices.Equal(got, want) {
							t.Fatalf("pair (%d,%d) nil-mask candidates: got %v want %v", pi, pj, got, want)
						}
						want = scanPairCandidates(tc.g, p, pi, pj, allowed)
						got = ix.AppendPairCandidates(nil, pi, pj, allowed)
						if !slices.Equal(got, want) {
							t.Fatalf("pair (%d,%d) masked candidates: got %v want %v", pi, pj, got, want)
						}
					}
				}
			}
			check()
			// Fuzz a move sequence and re-check equivalence plus every
			// maintained invariant after each batch.
			for batch := 0; batch < 10; batch++ {
				for i := 0; i < 50; i++ {
					v := rng.Int31n(tc.g.NumVertices())
					ix.Move(v, rng.Int31n(k))
				}
				if err := ix.Validate(); err != nil {
					t.Fatalf("after batch %d: %v", batch, err)
				}
				check()
			}
		})
	}
}

func TestIndexMaintainedAggregates(t *testing.T) {
	g := gen.ErdosRenyi(300, 1200, 3)
	rng := rand.New(rand.NewSource(11))
	const k = 5
	p := randomPartitioning(g, k, rng)
	ix := BuildIndex(g, p)
	for i := 0; i < 200; i++ {
		ix.Move(rng.Int31n(g.NumVertices()), rng.Int31n(k))
	}
	// Boundary() and IsBoundary must agree with the definition.
	var wantBoundary []int32
	for v := int32(0); v < g.NumVertices(); v++ {
		if IsBoundary(g, p, v) {
			wantBoundary = append(wantBoundary, v)
		}
		if ix.IsBoundary(v) != IsBoundary(g, p, v) {
			t.Fatalf("IsBoundary(%d) = %v, want %v", v, ix.IsBoundary(v), IsBoundary(g, p, v))
		}
	}
	if !slices.Equal(ix.Boundary(), wantBoundary) {
		t.Fatalf("Boundary() diverged from scan")
	}
	// IncidentEdges must agree with the O(|V|) rescan.
	if got, want := ix.IncidentEdges(), p.IncidentEdges(g); !slices.Equal(got, want) {
		t.Fatalf("IncidentEdges() = %v, want %v", got, want)
	}
	// Self-move must be a no-op.
	v := int32(42)
	before := ix.ExternalNeighbors(v)
	ix.Move(v, p.Assign[v])
	if ix.ExternalNeighbors(v) != before {
		t.Fatal("self-move changed ext count")
	}
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestShadow(t *testing.T) {
	g := gen.ErdosRenyi(200, 800, 5)
	rng := rand.New(rand.NewSource(13))
	const k = 6
	p := randomPartitioning(g, k, rng)
	ix := BuildIndex(g, p)
	s := ix.NewShadow()
	view := s.Partitioning()
	if view == p || !slices.Equal(view.Assign, p.Assign) {
		t.Fatal("shadow must start on its own copy of the master assignment")
	}

	// Candidate enumeration under a mask must match the scan over the view,
	// before and after moves through the shadow.
	allowed := NewBitset(g.NumVertices())
	for v := int32(0); v < allowed.Len(); v++ {
		allowed.SetTo(v, rng.Intn(2) == 0)
	}
	scratch := make([]uint64, len(allowed.Words()))
	checkPairs := func() {
		t.Helper()
		for pi := int32(0); pi < k; pi++ {
			for pj := pi + 1; pj < k; pj++ {
				want := scanPairCandidates(g, view, pi, pj, allowed)
				got := s.AppendPairUnsorted(nil, pi, pj, allowed)
				SortCandidates(got, scratch)
				if !slices.Equal(got, want) {
					t.Fatalf("pair (%d,%d): got %v want %v", pi, pj, got, want)
				}
			}
		}
	}
	checkPairs()
	for i := 0; i < 200; i++ {
		s.Move(rng.Int31n(g.NumVertices()), rng.Int31n(k))
	}
	checkPairs()

	// Moves through the shadow must not have leaked into the base index or
	// the base partitioning.
	if err := ix.Validate(); err != nil {
		t.Fatalf("base index corrupted by shadow moves: %v", err)
	}

	// Replaying the shadow's net moves into the index brings the two back
	// into agreement — how the scheduler keeps them in sync without ever
	// re-copying. (Validate ties the index's buckets to p.Assign, as
	// checkPairs tied the shadow's to the view.)
	for v, q := range view.Assign {
		ix.Move(int32(v), q)
	}
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(p.Assign, view.Assign) {
		t.Fatal("master and shadow view disagree after the replay")
	}

	// A nil mask is a programming error for shadows.
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for nil mask")
		}
	}()
	s.AppendPairUnsorted(nil, 0, 1, nil)
}

// TestSortCandidates drives both legs of SortCandidates — the bitmap
// drain and the comparison-sort fallback for sets much sparser than their
// span — and checks each against slices.Sort, with the scratch left
// all-zero for the next call.
func TestSortCandidates(t *testing.T) {
	const n = 1 << 16
	scratch := make([]uint64, n/64)
	rng := rand.New(rand.NewSource(41))
	perm := rng.Perm(n)
	for _, tc := range []struct {
		name      string
		size, off int
		span      int // ids drawn from [off, off+span)
		bitmap    bool
	}{
		{"empty", 0, 0, n, false},
		{"single", 1, 777, 1, false},
		{"dense", 900, 0, 1000, true},
		{"dense-offset", 900, 40000, 1000, true},
		{"two-words", 2, 63, 2, true},
		{"at-threshold", 100, 0, 100 * sortSpanFactor * 64, true},
		{"sparse", 5, 0, n, false},
		{"whole-space", n, 0, n, true},
	} {
		// size distinct ids of [off, off+span), both ends included so the
		// span is exactly what the case names, in random order.
		var vs []int32
		if tc.size >= 1 {
			vs = append(vs, int32(tc.off))
		}
		if tc.size >= 2 {
			vs = append(vs, int32(tc.off+tc.span-1))
		}
		for _, x := range perm {
			if len(vs) == tc.size {
				break
			}
			if x > 0 && x < tc.span-1 {
				vs = append(vs, int32(tc.off+x))
			}
		}
		rng.Shuffle(len(vs), func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
		if len(vs) >= 2 {
			words := int(slices.Max(vs)>>6) - int(slices.Min(vs)>>6) + 1
			if got := words <= sortSpanFactor*len(vs); got != tc.bitmap {
				t.Fatalf("%s: %d words for %d ids takes bitmap path = %v, case wants %v", tc.name, words, len(vs), got, tc.bitmap)
			}
		}
		want := slices.Clone(vs)
		slices.Sort(want)
		SortCandidates(vs, scratch)
		if !slices.Equal(vs, want) {
			t.Fatalf("%s: got %v want %v", tc.name, vs, want)
		}
		for w, b := range scratch {
			if b != 0 {
				t.Fatalf("%s: scratch[%d] = %#x on return", tc.name, w, b)
			}
		}
	}
}

func TestExternalDegreesSparse(t *testing.T) {
	g := gen.BarabasiAlbert(500, 4, 17)
	rng := rand.New(rand.NewSource(19))
	const k = 9
	p := randomPartitioning(g, k, rng)
	buf := make([]int64, k)
	mask := make([]uint64, MaskWords(k))
	var tlist []int32
	for v := int32(0); v < g.NumVertices(); v++ {
		dense := ExternalDegrees(g, p, v)
		tlist = ExternalDegreesSparse(g, p, v, buf, mask, tlist[:0])
		if !slices.IsSorted(tlist) {
			t.Fatalf("v=%d: touched list not sorted: %v", v, tlist)
		}
		for q := int32(0); q < k; q++ {
			if buf[q] != dense[q] {
				t.Fatalf("v=%d: sparse d_ext[%d] = %d, want %d", v, q, buf[q], dense[q])
			}
			if buf[q] != 0 && !slices.Contains(tlist, q) {
				t.Fatalf("v=%d: partition %d has weight %d but is not in touched list", v, q, buf[q])
			}
		}
		for _, q := range tlist {
			buf[q] = 0
		}
		// The sparse reset must leave buf all-zero, and ExternalDegreesSparse
		// itself must leave the bitmap all-zero, for the next call.
		for q, d := range buf {
			if d != 0 {
				t.Fatalf("v=%d: buf[%d] = %d after sparse reset", v, q, d)
			}
		}
		for w, b := range mask {
			if b != 0 {
				t.Fatalf("v=%d: mask[%d] = %#x on return", v, w, b)
			}
		}
	}
}
