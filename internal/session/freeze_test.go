package session

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"paragon/internal/dyn"
	"paragon/internal/graph"
)

// builderFreeze is the freeze the session's materialize used to be: every
// live edge once into a graph.Builder, which symmetrizes, counting-sorts
// and merges. It stays here as the reference the direct fill is compared
// against. Vertex sizes follow the session's rule: g0's, 1 for an
// arrival, 0 for an inactive id.
func builderFreeze(s *Session, g0 *graph.Graph) *graph.Graph {
	b := graph.NewBuilder(s.cap)
	for v := int32(0); v < s.cap; v++ {
		b.SetVertexWeight(v, s.g.VertexWeight(v))
		switch {
		case v < s.n0:
			b.SetVertexSize(v, g0.VertexSize(v))
		case v < s.active:
			b.SetVertexSize(v, 1)
		default:
			b.SetVertexSize(v, 0)
		}
		for _, h := range s.g.Row(v) {
			if v < h.To {
				b.AddWeightedEdge(v, h.To, h.W)
			}
		}
	}
	return b.Build()
}

func requireSameGraph(t *testing.T, got, want *graph.Graph) {
	t.Helper()
	if got.NumVertices() != want.NumVertices() || got.NumHalfEdges() != want.NumHalfEdges() {
		t.Fatalf("snapshot has %d vertices / %d half-edges, Builder freeze %d / %d",
			got.NumVertices(), got.NumHalfEdges(), want.NumVertices(), want.NumHalfEdges())
	}
	for v := int32(0); v < want.NumVertices(); v++ {
		if !slices.Equal(got.Neighbors(v), want.Neighbors(v)) || !slices.Equal(got.EdgeWeights(v), want.EdgeWeights(v)) {
			t.Fatalf("row %d: %v / %v, Builder freeze %v / %v", v,
				got.Neighbors(v), got.EdgeWeights(v), want.Neighbors(v), want.EdgeWeights(v))
		}
		if got.VertexWeight(v) != want.VertexWeight(v) || got.VertexSize(v) != want.VertexSize(v) {
			t.Fatalf("vertex %d: weight/size %d/%d, Builder freeze %d/%d", v,
				got.VertexWeight(v), got.VertexSize(v), want.VertexWeight(v), want.VertexSize(v))
		}
	}
}

// hostile wraps one generated batch in everything a replayed or
// hand-written schedule can get wrong. None of it may reach the live
// graph in a form the freeze would have to repair: applyOp and
// placeArrival drop or normalise each one.
func hostile(s *Session, b dyn.Batch, rng *rand.Rand) dyn.Batch {
	act := s.active
	u := rng.Int31n(act)
	for len(s.g.Row(u)) == 0 {
		u = rng.Int31n(act)
	}
	v := s.g.Row(u)[0].To
	x, y := rng.Int31n(act), rng.Int31n(act)
	b.Ops = append([]dyn.EdgeOp{
		{Add: true, U: u, V: v, W: 1},         // duplicate add
		{Add: true, U: v, V: u, W: 7},         // re-add, reversed, with a different weight
		{Add: true, U: x, V: x, W: 1},         // self-loop
		{Add: true, U: x, V: act, W: 1},       // inactive endpoint
		{Add: true, U: -1, V: y, W: 1},        // negative endpoint
		{Add: true, U: x, V: s.cap + 5, W: 1}, // endpoint past the id space
		{Add: true, U: x, V: y, W: 0},         // non-positive weight
		{Add: true, U: y, V: x, W: 3},         // the same edge again, heavier
		{U: x, V: y},                          // remove it (or whatever edge was there)
		{U: y, V: x},                          // remove-absent
		{U: y, V: y},                          // remove a self-loop
	}, b.Ops...)
	self := act + int32(len(b.Arrivals)) // the id this arrival gets if the ones before it fit
	b.Arrivals = append(b.Arrivals, dyn.Arrival{
		Neighbors: []int32{x, x, self, act + 100, -3, y, x},
		Weights:   []int32{2, 9, 1, 0}, // short, and one non-positive: the rest default to 1
	})
	return b
}

// TestSessionFreezeMatchesBuilder drives a session through a hostile
// schedule that also overruns Capacity and includes empty batches, and
// after New and after every launch demands that the snapshot the epoch
// refines is element for element the Builder freeze of the live graph,
// and a valid (symmetric) CSR, at every Refine.Workers value.
func TestSessionFreezeMatchesBuilder(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			g0, p0 := testBase(t)
			s, err := New(g0, p0, testConfig(workers, 0, nil, nil))
			if err != nil {
				t.Fatal(err)
			}
			requireSameGraph(t, s.snap, builderFreeze(s, g0))
			rng := rand.New(rand.NewSource(29))
			w := dyn.NewWorkload(101, dyn.WorkloadConfig{Adds: 40, Removes: 15, Arrivals: 5})
			for i := 0; i < 60; i++ {
				var b dyn.Batch
				if i%7 != 3 { // every seventh batch is empty
					b = hostile(s, w.Next(s.Source()), rng)
				}
				st, err := s.Ingest(b)
				if err != nil {
					t.Fatalf("batch %d: %v", i, err)
				}
				if st.Launched {
					// The epoch goroutine only reads the snapshot, and launch is
					// the last thing Ingest does, so the overlay is what was frozen.
					requireSameGraph(t, s.snap, builderFreeze(s, g0))
					if err := s.snap.Validate(); err != nil {
						t.Fatalf("batch %d: %v", i, err)
					}
				}
			}
			if _, err := s.Drain(); err != nil {
				t.Fatal(err)
			}
			if st := s.Stats(); st.EpochsLaunched < 3 || st.ArrivalsRejected == 0 || st.Active != tCap {
				t.Fatalf("schedule too tame: %d launches, %d arrivals rejected, %d of %d ids active",
					st.EpochsLaunched, st.ArrivalsRejected, st.Active, tCap)
			}
		})
	}
}

// placeArrival resolves an arrival's neighbors in session-owned scratch.
// Nothing may keep a reference to it: the second of two back-to-back
// arrivals must not rewrite the first one's edges.
func TestPlaceArrivalScratchNotRetained(t *testing.T) {
	g0, p0 := testBase(t)
	s, err := New(g0, p0, testConfig(1, 0, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	first := s.active
	if _, err := s.Ingest(dyn.Batch{Arrivals: []dyn.Arrival{
		{Neighbors: []int32{1, 2, 3}, Weights: []int32{4, 5, 6}},
		{Neighbors: []int32{7, 8, 9, 10}, Weights: []int32{1, 1, 1, 1}},
	}}); err != nil {
		t.Fatal(err)
	}
	if want := []graph.Half{{To: 1, W: 4}, {To: 2, W: 5}, {To: 3, W: 6}}; !slices.Equal(s.g.Row(first), want) {
		t.Fatalf("first arrival's row = %v, want %v", s.g.Row(first), want)
	}
	if want := []graph.Half{{To: 7, W: 1}, {To: 8, W: 1}, {To: 9, W: 1}, {To: 10, W: 1}}; !slices.Equal(s.g.Row(first+1), want) {
		t.Fatalf("second arrival's row = %v, want %v", s.g.Row(first+1), want)
	}
	for i, u := range []int32{1, 2, 3} {
		row := s.g.Row(u)
		if back := row[len(row)-1]; back != (graph.Half{To: first, W: int32(4 + i)}) {
			t.Fatalf("vertex %d's newest half-edge = %v, want {%d %d}", u, back, first, 4+i)
		}
	}
}
