package migrate

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"

	"paragon/internal/gen"
	"paragon/internal/partition"
	"paragon/internal/stream"
)

func TestNewPlanDiff(t *testing.T) {
	old := partition.New(3, 5)
	copy(old.Assign, []int32{0, 0, 1, 2, 2})
	now := old.Clone()
	now.Assign[1] = 2
	now.Assign[3] = 0
	plan, err := NewPlan(old, now)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Moves) != 2 {
		t.Fatalf("moves = %v", plan.Moves)
	}
	if plan.Moves[0] != (Move{Vertex: 1, From: 0, To: 2}) {
		t.Fatalf("first move = %+v", plan.Moves[0])
	}
	if plan.Moves[1] != (Move{Vertex: 3, From: 2, To: 0}) {
		t.Fatalf("second move = %+v", plan.Moves[1])
	}
}

func TestNewPlanErrors(t *testing.T) {
	a := partition.New(2, 4)
	b := partition.New(3, 4)
	if _, err := NewPlan(a, b); err == nil {
		t.Fatal("expected k-mismatch error")
	}
	c := partition.New(2, 5)
	if _, err := NewPlan(a, c); err == nil {
		t.Fatal("expected length-mismatch error")
	}
}

func TestExecuteAppContextHooks(t *testing.T) {
	// The §5 BFS scenario: each vertex carries a distance value that
	// must survive migration via the save/restore hooks.
	g := gen.Mesh2D(10, 10)
	old := stream.DG(g, 4, stream.DefaultOptions())
	now := old.Clone()
	for v := int32(0); v < 20; v++ {
		now.Assign[v] = (now.Assign[v] + 1) % 4
	}
	distances := make([]int64, g.NumVertices())
	for v := range distances {
		distances[v] = int64(v) * 7
	}
	saved := make([]int64, g.NumVertices())
	copy(saved, distances)

	stores := BuildStores(g, old)
	plan, err := NewPlan(old, now)
	if err != nil {
		t.Fatal(err)
	}
	restored := map[int32]bool{}
	ctx := AppContext{
		Save: func(v int32) []byte {
			var buf bytes.Buffer
			binary.Write(&buf, binary.LittleEndian, distances[v])
			distances[v] = -999 // simulate the sender dropping its copy
			return buf.Bytes()
		},
		Restore: func(v int32, data []byte) {
			var d int64
			binary.Read(bytes.NewReader(data), binary.LittleEndian, &d)
			distances[v] = d
			restored[v] = true
		},
	}
	if _, err := Execute(stores, plan, ctx); err != nil {
		t.Fatal(err)
	}
	if len(restored) != len(plan.Moves) {
		t.Fatalf("restored %d of %d moved vertices", len(restored), len(plan.Moves))
	}
	for v := range distances {
		if distances[v] != saved[v] {
			t.Fatalf("vertex %d distance corrupted: %d vs %d", v, distances[v], saved[v])
		}
	}
}

func TestExecuteMissingVertex(t *testing.T) {
	g := gen.Mesh2D(4, 4)
	old := stream.HP(g, 2)
	stores := BuildStores(g, old)
	delete(stores[old.Assign[0]].Vertices, 0) // sabotage
	now := old.Clone()
	now.Assign[0] = 1 - now.Assign[0]
	plan, err := NewPlan(old, now)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(stores, plan, AppContext{}); err == nil {
		t.Fatal("expected missing-vertex error")
	}
}

func TestExecutePlanStoreMismatch(t *testing.T) {
	g := gen.Mesh2D(4, 4)
	old := stream.HP(g, 2)
	stores := BuildStores(g, old)
	plan := &Plan{K: 5}
	if _, err := Execute(stores, plan, AppContext{}); err == nil {
		t.Fatal("expected rank-count error")
	}
}

func TestVerifyCatchesCorruption(t *testing.T) {
	g := gen.Mesh2D(4, 4)
	p := stream.HP(g, 2)
	stores := BuildStores(g, p)
	// Duplicate a vertex.
	stores[0].Vertices[15] = &VertexData{}
	stores[1].Vertices[15] = &VertexData{}
	if err := Verify(stores, g, p); err == nil {
		t.Fatal("expected duplicate error")
	}
	// Lost vertex.
	stores2 := BuildStores(g, p)
	delete(stores2[p.Assign[3]].Vertices, 3)
	if err := Verify(stores2, g, p); err == nil {
		t.Fatal("expected lost-vertex error")
	}
	// Wrong owner.
	stores3 := BuildStores(g, p)
	vd := stores3[p.Assign[5]].Vertices[5]
	delete(stores3[p.Assign[5]].Vertices, 5)
	stores3[1-p.Assign[5]].Vertices[5] = vd
	if err := Verify(stores3, g, p); err == nil {
		t.Fatal("expected wrong-owner error")
	}
}

// Property: Execute realizes any random target decomposition exactly.
func TestQuickExecuteRealizesTarget(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.ErdosRenyi(120, 360, seed)
		old := stream.HP(g, 5)
		now := old.Clone()
		rngMoves := int(seed%50) + 1
		for i := 0; i < rngMoves; i++ {
			v := int32((seed + int64(i)*37) % int64(g.NumVertices()))
			if v < 0 {
				v = -v
			}
			now.Assign[v] = (now.Assign[v] + 1 + int32(i)%4) % 5
		}
		stores := BuildStores(g, old)
		plan, err := NewPlan(old, now)
		if err != nil {
			return false
		}
		if _, err := Execute(stores, plan, AppContext{}); err != nil {
			return false
		}
		return Verify(stores, g, now) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// The binary wire form must round-trip exactly and reject every torn
// prefix — the property the directory journal's crash recovery stands on.
func TestPlanBinaryRoundTrip(t *testing.T) {
	plans := []*Plan{
		{K: 4},
		{K: 7, Moves: []Move{{Vertex: 0, From: 1, To: 2}}},
		{K: 128, Moves: []Move{
			{Vertex: 5, From: 0, To: 3},
			{Vertex: 9, From: 2, To: 1},
			{Vertex: 1 << 20, From: 127, To: 0},
		}},
	}
	for _, p := range plans {
		enc := p.AppendBinary(nil)
		got, err := DecodePlan(enc)
		if err != nil {
			t.Fatalf("DecodePlan: %v", err)
		}
		if got.K != p.K || len(got.Moves) != len(p.Moves) {
			t.Fatalf("decoded shape (%d,%d), want (%d,%d)", got.K, len(got.Moves), p.K, len(p.Moves))
		}
		for i := range p.Moves {
			if got.Moves[i] != p.Moves[i] {
				t.Fatalf("move %d = %+v, want %+v", i, got.Moves[i], p.Moves[i])
			}
		}
		// Every strict prefix is a torn record and must be rejected, as
		// must trailing garbage.
		for cut := 0; cut < len(enc); cut++ {
			if _, err := DecodePlan(enc[:cut]); err == nil {
				t.Fatalf("torn prefix of %d/%d bytes decoded", cut, len(enc))
			}
		}
		if _, err := DecodePlan(append(append([]byte(nil), enc...), 0)); err == nil {
			t.Fatal("trailing byte accepted")
		}
	}
}
