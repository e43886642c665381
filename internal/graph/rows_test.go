package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// symRows is a symmetric, duplicate-free adjacency whose rows are in
// arbitrary order — what a live structure hands FromSymmetricRows.
type symRows struct {
	vwgt, vsize []int32
	rows        [][]Half
}

func newSymRows(n int32) *symRows {
	s := &symRows{vwgt: make([]int32, n), vsize: make([]int32, n), rows: make([][]Half, n)}
	for v := range s.vwgt {
		s.vwgt[v], s.vsize[v] = 1, 1
	}
	return s
}

func (s *symRows) has(u, v int32) bool {
	return slices.ContainsFunc(s.rows[u], func(h Half) bool { return h.To == v })
}

func (s *symRows) add(u, v, w int32) {
	s.rows[u] = append(s.rows[u], Half{v, w})
	s.rows[v] = append(s.rows[v], Half{u, w})
}

func (s *symRows) shuffle(rng *rand.Rand) {
	for _, r := range s.rows {
		rng.Shuffle(len(r), func(i, j int) { r[i], r[j] = r[j], r[i] })
	}
}

func (s *symRows) freeze(workers int) *Graph {
	return FromSymmetricRows(int32(len(s.rows)), s.vwgt, s.vsize,
		func(v int32) int32 { return int32(len(s.rows[v])) },
		func(v int32, to, w []int32) {
			for i, h := range s.rows[v] {
				to[i], w[i] = h.To, h.W
			}
		}, workers)
}

// viaBuilder freezes the same adjacency the way the constructor's callers
// used to: every edge once into a Builder.
func (s *symRows) viaBuilder() *Graph {
	b := NewBuilder(int32(len(s.rows)))
	for v, r := range s.rows {
		b.SetVertexWeight(int32(v), s.vwgt[v])
		b.SetVertexSize(int32(v), s.vsize[v])
		for _, h := range r {
			if int32(v) < h.To {
				b.AddWeightedEdge(int32(v), h.To, h.W)
			}
		}
	}
	return b.Build()
}

// randomSymRows draws a graph with everything the freeze paths meet: hub
// rows of a few hundred entries, short rows, isolated vertices, weight-0
// (inactive) vertices and weighted edges.
func randomSymRows(n int32, seed int64) *symRows {
	rng := rand.New(rand.NewSource(seed))
	s := newSymRows(n)
	for v := int32(0); v < n; v++ {
		s.vwgt[v], s.vsize[v] = rng.Int31n(5), 1+rng.Int31n(9)
	}
	if n < 2 {
		return s
	}
	link := func(u, v int32) {
		if u != v && !s.has(u, v) {
			s.add(u, v, 1+rng.Int31n(9))
		}
	}
	for e := int32(0); e < 2*n; e++ { // sparse background, degrees mostly below 32
		// The top tenth of the id space stays isolated and weightless, like
		// a session's not-yet-arrived vertices.
		link(rng.Int31n(n-n/10), rng.Int31n(n-n/10))
	}
	for h := int32(0); h < n/250; h++ { // hubs: a few hundred neighbors each
		hub := rng.Int31n(n - n/10)
		for e := 0; e < 300; e++ {
			link(hub, rng.Int31n(n-n/10))
		}
	}
	for v := n - n/10; v < n; v++ {
		s.vwgt[v] = 0
	}
	s.shuffle(rng)
	return s
}

func requireSameCSR(t *testing.T, got, want *Graph) {
	t.Helper()
	switch {
	case !slices.Equal(got.xadj, want.xadj):
		t.Fatalf("xadj differs:\n got %v\nwant %v", got.xadj, want.xadj)
	case !slices.Equal(got.adj, want.adj):
		t.Fatalf("adj differs:\n got %v\nwant %v", got.adj, want.adj)
	case !slices.Equal(got.ewgt, want.ewgt):
		t.Fatalf("ewgt differs:\n got %v\nwant %v", got.ewgt, want.ewgt)
	case !slices.Equal(got.vwgt, want.vwgt):
		t.Fatalf("vwgt differs:\n got %v\nwant %v", got.vwgt, want.vwgt)
	case !slices.Equal(got.vsize, want.vsize):
		t.Fatalf("vsize differs:\n got %v\nwant %v", got.vsize, want.vsize)
	}
}

func TestFromSymmetricRowsMatchesBuilder(t *testing.T) {
	for _, n := range []int32{0, 1, 2, 1000} {
		for seed := int64(1); seed <= 3; seed++ {
			s := randomSymRows(n, seed)
			want := s.viaBuilder()
			if n == 1000 && want.MaxDegree() <= 32 {
				t.Fatalf("seed %d: max degree %d, the graph has no hub row", seed, want.MaxDegree())
			}
			for _, workers := range []int{1, 2, 3, 8} {
				t.Run(fmt.Sprintf("n=%d/seed=%d/workers=%d", n, seed, workers), func(t *testing.T) {
					got := s.freeze(workers)
					requireSameCSR(t, got, want)
					if err := got.Validate(); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// The constructor snapshots the vertex attributes: a session keeps
// mutating its weight arrays after the freeze.
func TestFromSymmetricRowsCopiesVertexAttrs(t *testing.T) {
	s := randomSymRows(50, 4)
	g := s.freeze(2)
	w0, s0 := g.VertexWeight(0), g.VertexSize(0)
	s.vwgt[0] += 7
	s.vsize[0] += 7
	if g.VertexWeight(0) != w0 || g.VertexSize(0) != s0 {
		t.Fatal("the frozen graph aliases the caller's vertex attributes")
	}
}

// Every input Builder.AddWeightedEdge rejects is rejected here too, plus
// the two Build absorbed silently (self-loops, duplicates). The panic must
// reach the caller's goroutine at every worker count.
func TestFromSymmetricRowsRejects(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(s *symRows)
		want    string
	}{
		{"neighbor past n", func(s *symRows) { s.rows[2][0].To = 4 }, "edge (2,4) out of range [0,4)"},
		{"negative neighbor", func(s *symRows) { s.rows[2][0].To = -1 }, "edge (2,-1) out of range [0,4)"},
		{"self-loop", func(s *symRows) { s.rows[1][1].To = 1 }, "self-loop on 1"},
		{"zero weight", func(s *symRows) { s.rows[3][0].W = 0 }, "non-positive edge weight 0 on (3,2)"},
		{"negative weight", func(s *symRows) { s.rows[0][0].W = -2 }, "non-positive edge weight -2 on (0,1)"},
		{"duplicate neighbor", func(s *symRows) { s.rows[1] = append(s.rows[1], Half{0, 9}) }, "duplicate edge (1,0)"},
		{"short vertex weights", func(s *symRows) { s.vwgt = s.vwgt[:3] }, "3 vertex weights"},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				s := newSymRows(4) // the path 0-1-2-3
				s.add(0, 1, 1)
				s.add(1, 2, 2)
				s.add(2, 3, 3)
				tc.corrupt(s)
				defer func() {
					if msg := fmt.Sprint(recover()); !strings.Contains(msg, tc.want) {
						t.Fatalf("panic = %q, want one naming %q", msg, tc.want)
					}
				}()
				s.freeze(workers)
				t.Fatal("accepted")
			})
		}
	}
}

// VertexRanges must tile [0, n) in order for every part count, and keep
// each range within one row of an equal share of the half-edges.
func TestVertexRanges(t *testing.T) {
	g := randomSymRows(1000, 5).freeze(1)
	for _, parts := range []int{-1, 1, 2, 3, 8, 5000} {
		b := g.VertexRanges(parts)
		parts = max(parts, 1)
		if len(b) != parts+1 || b[0] != 0 || b[parts] != g.NumVertices() || !slices.IsSorted(b) {
			t.Fatalf("parts=%d: boundaries %v do not tile [0,%d)", parts, b, g.NumVertices())
		}
		share := g.NumHalfEdges() / int64(parts)
		for i := 0; i < parts; i++ {
			if got := g.xadj[b[i+1]] - g.xadj[b[i]]; got > share+int64(g.MaxDegree())+1 {
				t.Fatalf("parts=%d: range %d holds %d half-edges, share is %d", parts, i, got, share)
			}
		}
	}
	if b := new(Graph).VertexRanges(3); !slices.Equal(b, []int32{0, 0, 0, 0}) {
		t.Fatalf("zero graph: %v", b)
	}
}
