package graph

import (
	"bytes"
	"math/rand"
	"testing"
)

// sortedFreeze is the freeze an overlay made before it kept an edit log:
// the live rows copied into FromSymmetricRows, which sorts each one. The
// merging Materialize is held to its bytes.
func sortedFreeze(o *Overlay) *Graph {
	return FromSymmetricRows(o.NumVertices(), o.vwgt, o.vsize,
		func(v int32) int32 { return int32(len(o.rows[v])) },
		func(v int32, to, w []int32) {
			for i, h := range o.rows[v] {
				to[i], w[i] = h.To, h.W
			}
		}, 1)
}

func binaryBytes(t testing.TB, g *Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// freezeChecked freezes o and fails t unless the snapshot's bytes are the
// sorted freeze's, and the overlay's edge count and total weight — and the
// snapshot's — equal a recount of the live rows.
func freezeChecked(t testing.TB, o *Overlay) *Graph {
	t.Helper()
	want := binaryBytes(t, sortedFreeze(o))
	g := o.Materialize()
	if !bytes.Equal(binaryBytes(t, g), want) {
		t.Fatal("the merged freeze differs from the sorted freeze of the live rows")
	}
	var halves, weight int64
	for _, row := range o.rows {
		halves += int64(len(row))
		for _, h := range row {
			weight += int64(h.W)
		}
	}
	if o.NumEdges() != halves/2 || o.TotalEdgeWeight() != weight/2 ||
		g.NumEdges() != halves/2 || g.TotalEdgeWeight() != weight/2 {
		t.Fatalf("overlay %d edges of weight %d, snapshot %d of %d; the rows hold %d of %d",
			o.NumEdges(), o.TotalEdgeWeight(), g.NumEdges(), g.TotalEdgeWeight(), halves/2, weight/2)
	}
	return g
}

// emptyRow removes every edge of v.
func emptyRow(o *Overlay, v int32) {
	for len(o.Row(v)) > 0 {
		o.RemoveEdge(v, o.Row(v)[0].To)
	}
}

// TestOverlayMergeMatchesSortedFreeze walks the edit shapes a merge has to
// get right — a removal and a re-add at a new weight, in one epoch and
// across two; an edge added and removed within one epoch; a row emptied,
// frozen and refilled; SetVertex — and demands after every freeze the
// bytes of the sorted freeze.
func TestOverlayMergeMatchesSortedFreeze(t *testing.T) {
	o := NewOverlay(buildPath(5)) // 0-1-2-3-4, unit weights
	o.RemoveEdge(1, 2)
	o.AddEdge(2, 1, 7) // re-added, reversed, at a new weight
	o.AddEdge(0, 3, 4)
	o.RemoveEdge(3, 0) // added and removed within the epoch
	o.AddEdge(0, 4, 2)
	o.SetVertex(2, 9, 8)
	g := freezeChecked(t, o)
	if g.EdgeWeightBetween(1, 2) != 7 || g.HasEdge(0, 3) || g.EdgeWeightBetween(4, 0) != 2 || g.VertexWeight(2) != 9 {
		t.Fatalf("first freeze: w(1,2) %d, (0,3) present %v, w(0,4) %d, vwgt(2) %d; want 7, false, 2, 9",
			g.EdgeWeightBetween(1, 2), g.HasEdge(0, 3), g.EdgeWeightBetween(4, 0), g.VertexWeight(2))
	}

	emptyRow(o, 3)
	if g := freezeChecked(t, o); g.Degree(3) != 0 {
		t.Fatalf("emptied row 3 froze with degree %d", g.Degree(3))
	}
	o.AddEdge(3, 0, 5)
	o.AddEdge(4, 3, 6)
	o.RemoveEdge(1, 2)
	o.AddEdge(1, 2, 3) // the re-add of an edge the last epoch re-added
	o.SetVertex(3, 0, 0)
	g = freezeChecked(t, o)
	if g.Degree(3) != 2 || g.EdgeWeightBetween(1, 2) != 3 || g.VertexSize(3) != 0 {
		t.Fatalf("refilled row 3 has degree %d, w(1,2) %d, vsize(3) %d; want 2, 3, 0",
			g.Degree(3), g.EdgeWeightBetween(1, 2), g.VertexSize(3))
	}
	freezeChecked(t, o) // an empty log: every row copied
}

// TestOverlayLogOverflow fills the log to the edge count, which drops it:
// the next freeze sorts the live rows, becomes the new base, and the
// freeze after it merges again.
func TestOverlayLogOverflow(t *testing.T) {
	o := NewOverlay(buildPath(6)) // 5 edges
	for i := int32(0); o.base != nil; i++ {
		if i == 10 {
			t.Fatalf("a log of %d edits on %d edges was kept", len(o.log), o.NumEdges())
		}
		o.RemoveEdge(i%5, i%5+1)
		o.AddEdge(i%5, i%5+1, 2+i)
	}
	o.AddEdge(0, 5, 9) // an edit while nothing is logged
	g := freezeChecked(t, o)
	if o.base != g || len(o.log) != 0 {
		t.Fatalf("after the sorted freeze: base is the snapshot %v, log %d edits", o.base == g, len(o.log))
	}
	o.RemoveEdge(2, 3)
	o.AddEdge(2, 4, 1)
	if len(o.log) != 2 {
		t.Fatalf("log holds %d edits after two, want 2", len(o.log))
	}
	freezeChecked(t, o)
}

// runFreezeSchedule reads a schedule from bytes, four per step — an add,
// a removal, a SetVertex, a freeze or a row emptied, on ids taken modulo
// n — over randomSymRows(n, seed) frozen, checks every freeze, and
// returns how many merged a log and how many sorted the live rows. Small
// graphs overflow the log within a few steps, so schedules cross both
// freeze paths.
func runFreezeSchedule(t *testing.T, n int32, seed int64, in []byte) (merged, sorted int) {
	o := NewOverlay(randomSymRows(n, seed).freeze(2))
	freeze := func() {
		if o.base != nil {
			merged++
		} else {
			sorted++
		}
		freezeChecked(t, o)
	}
	for ; len(in) >= 4; in = in[4:] {
		u, v, x := int32(in[1])%n, int32(in[2])%n, int32(in[3])
		switch in[0] % 8 {
		case 0, 1, 2:
			o.AddEdge(u, v, 1+x%9) // a self-loop is refused, an existing edge kept
		case 3, 4:
			o.RemoveEdge(u, v)
		case 5:
			o.SetVertex(u, x%5, 1+x%3)
		case 6:
			freeze()
		case 7:
			emptyRow(o, u)
		}
	}
	freeze()
	return merged, sorted
}

// TestOverlayRandomSchedules runs long random schedules, epoch after
// epoch, on graphs with hub rows (n = 250) and on graphs whose log
// overflows between freezes (n = 30), and demands both freeze paths ran.
func TestOverlayRandomSchedules(t *testing.T) {
	var merged, sorted int
	for seed := int64(1); seed <= 4; seed++ {
		for _, n := range []int32{250, 30} {
			rng := rand.New(rand.NewSource(seed))
			in := make([]byte, 4*3000)
			rng.Read(in)
			for i := 0; i < len(in); i += 4 {
				if in[i]%8 == 6 && rng.Intn(8) != 0 { // about one freeze in 64 steps
					in[i] = 0
				}
			}
			m, s := runFreezeSchedule(t, n, seed, in)
			merged, sorted = merged+m, sorted+s
		}
	}
	if merged < 100 || sorted < 10 {
		t.Fatalf("%d merged and %d sorted freezes; the schedules miss a path", merged, sorted)
	}
}

// FuzzOverlayFreeze runs fuzzed schedules through runFreezeSchedule; the
// first byte picks the graph.
func FuzzOverlayFreeze(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 3, 1, 0, 4, 3, 1, 0, 1, 1, 3, 5, 6, 0, 0, 0, 0, 1, 3, 2})
	f.Add([]byte{40, 9, 0, 1, 2, 3, 2, 3, 5, 0, 2, 3, 5, 6, 0, 0, 0, 7, 2, 0, 0, 0, 2, 9, 1})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			in = []byte{0}
		}
		runFreezeSchedule(t, 2+int32(in[0])%60, int64(in[0]), in[1:])
	})
}
