package partition

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
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
			check := func() {
				t.Helper()
				for pi := int32(0); pi < k; pi++ {
					for pj := pi + 1; pj < k; pj++ {
						want := scanPairCandidates(tc.g, p, pi, pj, nil)
						got := ix.AppendPairCandidates(nil, pi, pj, nil)
						if !slices.Equal(got, want) {
							t.Fatalf("pair (%d,%d) candidates: got %v want %v", pi, pj, got, want)
						}
					}
				}
			}
			check()
			// A masked gather is a Shadow's (TestShadow); an Index refuses one.
			mustPanic(t, "a masked gather on an Index", func() { ix.AppendPairCandidates(nil, 0, 1, NewBitset(tc.g.NumVertices())) })
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

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("expected a panic: %s", what)
		}
	}()
	fn()
}

// TestShadow drives a shadow through random interleavings of what the
// wave engine does to it — waves of moves through the view, plain or an
// FM-style run rolled back in reverse, then a barrier that commits the
// view's net moves; mask flips followed by a Sync that hears of repeats
// and unflipped vertices; a change of mask. Moves through the view must
// leave the master and the movable lists untouched until the barrier;
// after every barrier and Sync the lists must equal a scan over the
// master, and a pair's candidates the O(|V|) scan.
func TestShadow(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		k    int32
		// one vertex in `sparse` starts masked: 1 is the power-law case,
		// where every member of a partition is listed.
		sparse int
	}{
		{"er", gen.ErdosRenyi(200, 800, 5), 6, 2},
		{"mesh", gen.Mesh2D(12, 12), 4, 2},
		{"ba", gen.BarabasiAlbert(150, 3, 9), 9, 2},
		{"ba-all-masked", gen.BarabasiAlbert(150, 3, 9), 9, 1},
		{"er-few-masked", gen.ErdosRenyi(200, 800, 5), 6, 10},
		// TestIndexMatchesScanOnRandomGraphs' graphs, masked.
		{"index-er", gen.ErdosRenyi(400, 1600, 1), 7, 2},
		{"index-ba", gen.BarabasiAlbert(300, 3, 2), 7, 2},
		{"index-mesh", gen.Mesh2D(15, 15), 7, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, k := tc.g, tc.k
			n := g.NumVertices()
			rng := rand.New(rand.NewSource(13))
			p := randomPartitioning(g, k, rng)
			ix := BuildIndex(g, p)
			s := ix.NewShadow()
			view := s.Partitioning()
			if view == p || !slices.Equal(view.Assign, p.Assign) || s.Master() != p {
				t.Fatal("shadow must start on its own copy of the master assignment")
			}

			allowed := NewBitset(n)
			for v := int32(0); v < n; v++ {
				allowed.SetTo(v, rng.Intn(tc.sparse) == 0)
			}
			// Unsynced, even the right mask is a foreign one.
			mustPanic(t, "gather before the first Sync", func() { s.AppendPairUnsorted(nil, 0, 1, allowed) })
			s.Sync(allowed, allowed.AppendSet(nil))

			words := make([]uint64, MaskWords(n))
			summary := make([]uint64, MaskWords(int32(len(words))))
			check := func(mask *Bitset) {
				t.Helper()
				if err := s.Validate(); err != nil {
					t.Fatal(err)
				}
				if err := ix.Validate(); err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(view.Assign, p.Assign) {
					t.Fatal("master and shadow view disagree at a barrier")
				}
				for pi := int32(0); pi < k; pi++ {
					for pj := pi + 1; pj < k; pj++ {
						want := scanPairCandidates(g, p, pi, pj, mask)
						got := s.AppendPairUnsorted(nil, pi, pj, mask)
						SortCandidates(got, words, summary)
						if !slices.Equal(got, want) {
							t.Fatalf("pair (%d,%d): got %v want %v", pi, pj, got, want)
						}
					}
				}
			}
			lists := func() (out [][]int32) {
				for q := int32(0); q < k; q++ {
					out = append(out, slices.Clone(s.Masked(q)))
				}
				return out
			}
			check(allowed)
			var flipped []int32
			for step := 0; step < 150; step++ {
				if rng.Intn(3) == 2 { // the mask changes; Sync hears of more than what flipped
					flipped = flipped[:0]
					for i := 0; i < 12; i++ {
						v := rng.Int31n(n)
						if i%3 != 0 {
							allowed.SetTo(v, !allowed.Get(v))
						}
						flipped = append(flipped, v, v)
					}
					s.Sync(allowed, flipped)
					check(allowed)
					continue
				}
				// A wave: moves through the view, masked or not, some of
				// them an FM-style hill climb whose suffix is rolled back.
				master, before := slices.Clone(p.Assign), lists()
				for i := 0; i < 8; i++ {
					s.Move(rng.Int31n(n), rng.Int31n(k))
				}
				type rec struct{ v, from int32 }
				var hist []rec
				for i := 0; i < 10; i++ {
					v := rng.Int31n(n)
					hist = append(hist, rec{v, view.Assign[v]})
					s.Move(v, rng.Int31n(k))
				}
				for i := len(hist) - 1; i >= 3; i-- {
					s.Move(hist[i].v, hist[i].from)
				}
				if !slices.Equal(p.Assign, master) {
					t.Fatal("a move through the view reached the master")
				}
				if after := lists(); !slices.EqualFunc(after, before, slices.Equal) {
					t.Fatal("a move through the view changed the movable lists before the barrier")
				}
				// The barrier: the view's net moves, committed.
				for v, q := range view.Assign {
					if q != p.Assign[v] {
						s.Commit(int32(v), q)
					}
				}
				check(allowed)
			}

			// A second mask starts the lists over; the first is then foreign.
			other := NewBitset(n)
			for v := int32(0); v < n; v += 3 {
				other.Set(v)
			}
			s.Sync(other, nil)
			check(other)
			mustPanic(t, "gather under a mask the shadow is not synced to", func() { s.AppendPairUnsorted(nil, 0, 1, allowed) })
			// A nil mask is a programming error for shadows.
			mustPanic(t, "gather under a nil mask", func() { s.AppendPairUnsorted(nil, 0, 1, nil) })

			// Resync, after master moves the shadow did not see, empties the
			// lists and copies the view again.
			ix.Move(0, (p.Assign[0]+1)%k)
			s.Resync()
			if !slices.Equal(view.Assign, p.Assign) {
				t.Fatal("Resync left the view behind the master")
			}
			if err := s.Validate(); err != nil {
				t.Fatalf("after Resync: %v", err)
			}
			s.Sync(other, nil)
			check(other)
		})
	}
}

// TestSortCandidates checks the two-level drain against slices.Sort on
// the shapes the scheduler produces — a few dozen to a few thousand
// boundary vertices scattered over a 1M and a 10M id space (two METIS
// blobs far apart: the mesh shape), and the dense power-law shape where
// most words of the span are hit — plus the degenerate sizes, with both
// scratch levels left all-zero for the next call.
func TestSortCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, space := range []int32{1 << 16, 1_000_000, 10_000_000} {
		words := make([]uint64, MaskWords(space))
		summary := make([]uint64, MaskWords(int32(len(words))))
		type shape struct {
			name     string
			size     int
			off, len int32 // ids drawn from [off, off+len)
		}
		shapes := []shape{
			{"empty", 0, 0, space},
			{"single", 1, 777, 1},
			{"two-words", 2, 63, 2},
			{"last-id", 3, space - 3, 3},
			{"dense", 900, 40_000, 1000},
			{"whole-space", min(int(space), 1<<16), 0, space},
		}
		for _, size := range []int{64, 500, 4096} {
			shapes = append(shapes,
				shape{fmt.Sprintf("scattered-%d", size), size, 0, space},
				shape{fmt.Sprintf("two-blobs-%d", size), size, space / 8, int32(8 * size)})
		}
		for _, tc := range shapes {
			if int(tc.len) < tc.size || tc.off+tc.len > space {
				continue
			}
			// size distinct ids: drawn from [off, off+len), every other one
			// mirrored to the far end of the id space when the shape is a
			// blob pair.
			seen := make(map[int32]bool, tc.size)
			vs := make([]int32, 0, tc.size)
			for len(vs) < tc.size {
				v := tc.off + rng.Int31n(tc.len)
				if strings.HasPrefix(tc.name, "two-blobs") && len(vs)%2 == 1 {
					v = space - 1 - v
				}
				if !seen[v] {
					seen[v] = true
					vs = append(vs, v)
				}
			}
			want := slices.Clone(vs)
			slices.Sort(want)
			SortCandidates(vs, words, summary)
			if !slices.Equal(vs, want) {
				t.Fatalf("space %d, %s: result differs from slices.Sort", space, tc.name)
			}
			for w, b := range words {
				if b != 0 {
					t.Fatalf("space %d, %s: words[%d] = %#x on return", space, tc.name, w, b)
				}
			}
			for w, b := range summary {
				if b != 0 {
					t.Fatalf("space %d, %s: summary[%d] = %#x on return", space, tc.name, w, b)
				}
			}
		}
	}
}
