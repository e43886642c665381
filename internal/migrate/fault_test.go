package migrate

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"strings"
	"testing"

	"paragon/internal/faultsim"
	"paragon/internal/gen"
	"paragon/internal/partition"
	"paragon/internal/stream"
)

// Every Execute outcome — success, protocol error, fault abort — must
// leave the stores verifiable: against the new decomposition on commit,
// against the old one on rollback.

func TestExecuteConflictingPlanRejected(t *testing.T) {
	g := gen.Mesh2D(4, 4)
	old := stream.HP(g, 2)
	stores := BuildStores(g, old)
	plan := &Plan{K: 2, Moves: []Move{
		{Vertex: 3, From: old.Assign[3], To: 1 - old.Assign[3]},
		{Vertex: 3, From: 1 - old.Assign[3], To: old.Assign[3]},
	}}
	_, err := Execute(stores, plan, AppContext{})
	if err == nil || !strings.Contains(err.Error(), "conflicting plan") {
		t.Fatalf("err = %v, want conflicting-plan error", err)
	}
	if err := Verify(stores, g, old); err != nil {
		t.Fatalf("stores mutated by a rejected plan: %v", err)
	}
}

func TestExecuteMalformedPlanRejected(t *testing.T) {
	g := gen.Mesh2D(4, 4)
	old := stream.HP(g, 2)
	for _, tc := range []struct {
		name string
		mv   Move
	}{
		{"rank out of range", Move{Vertex: 1, From: 0, To: 9}},
		{"negative rank", Move{Vertex: 1, From: -1, To: 1}},
		{"degenerate", Move{Vertex: 1, From: 0, To: 0}},
	} {
		stores := BuildStores(g, old)
		plan := &Plan{K: 2, Moves: []Move{tc.mv}}
		if _, err := Execute(stores, plan, AppContext{}); err == nil {
			t.Fatalf("%s: plan accepted", tc.name)
		}
		if err := Verify(stores, g, old); err != nil {
			t.Fatalf("%s: stores mutated by a rejected plan: %v", tc.name, err)
		}
	}
}

// A missing vertex is detected during staging and the whole migration
// rolls back — the old decomposition still verifies for every vertex the
// saboteur left in place.
func TestExecuteMissingVertexRollsBack(t *testing.T) {
	g := gen.RMAT(400, 2000, 0.57, 0.19, 0.19, 5)
	old := stream.DG(g, 4, stream.DefaultOptions())
	now := old.Clone()
	for v := int32(0); v < 60; v++ {
		now.Assign[v] = (now.Assign[v] + 1) % 4
	}
	stores := BuildStores(g, old)
	sab := int32(-1) // first vertex the plan moves
	for v := int32(0); v < g.NumVertices(); v++ {
		if old.Assign[v] != now.Assign[v] {
			sab = v
			break
		}
	}
	delete(stores[old.Assign[sab]].Vertices, sab)
	plan, err := NewPlan(old, now)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Execute(stores, plan, AppContext{})
	if err == nil || !strings.Contains(err.Error(), "does not hold vertex") {
		t.Fatalf("err = %v, want missing-vertex error", err)
	}
	if !st.Aborted {
		t.Fatal("stats do not mark the rollback")
	}
	// Restore the sabotaged vertex and the pre-plan state must verify —
	// i.e. every *other* vertex was rolled back to its sender.
	stores[old.Assign[sab]].Vertices[sab] = &VertexData{}
	if err := Verify(stores, g, old); err != nil {
		t.Fatalf("rollback incomplete: %v", err)
	}
}

// A scheduled abort mid-plan rolls every rank back; Verify passes
// against the old decomposition and the application context returns to
// the senders through the Restore hook.
func TestExecuteAbortRollsBackStoresAndAppState(t *testing.T) {
	g := gen.RMAT(600, 3000, 0.57, 0.19, 0.19, 8)
	old := stream.DG(g, 6, stream.DefaultOptions())
	now := old.Clone()
	for v := int32(0); v < 150; v++ {
		now.Assign[v] = (now.Assign[v] + 1) % 6
	}
	plan, err := NewPlan(old, now)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Moves) < 10 {
		t.Fatalf("scenario too small: %d moves", len(plan.Moves))
	}
	// Abort two thirds of the way through the plan.
	abortAt := 2 * len(plan.Moves) / 3
	fab := faultsim.NewInjector(faultsim.Config{Script: []faultsim.Event{
		{Kind: faultsim.KindAbort, Round: 0, Index: abortAt},
	}})

	// Per-vertex app state with destructive Save, as in the §5 BFS
	// example: the sender forgets the value when the vertex departs.
	state := make([]int64, g.NumVertices())
	for v := range state {
		state[v] = int64(v)*3 + 1
	}
	ctx := AppContext{
		Save: func(v int32) []byte {
			var buf bytes.Buffer
			binary.Write(&buf, binary.LittleEndian, state[v])
			state[v] = -1
			return buf.Bytes()
		},
		Restore: func(v int32, data []byte) {
			var d int64
			binary.Read(bytes.NewReader(data), binary.LittleEndian, &d)
			state[v] = d
		},
	}

	stores := BuildStores(g, old)
	st, err := ExecuteWith(stores, plan, ctx, fab)
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted", err)
	}
	if !st.Aborted {
		t.Fatal("stats do not mark the abort")
	}
	if st.RolledBack == 0 || st.RolledBack >= int64(len(plan.Moves)) {
		t.Fatalf("rolled back %d of %d — abort should land mid-plan", st.RolledBack, len(plan.Moves))
	}
	if st.MovedVertices != 0 {
		t.Fatalf("aborted migration reports %d moved vertices", st.MovedVertices)
	}
	if err := Verify(stores, g, old); err != nil {
		t.Fatalf("rollback incomplete: %v", err)
	}
	for v := range state {
		if state[v] != int64(v)*3+1 {
			t.Fatalf("vertex %d app state not restored: %d", v, state[v])
		}
	}
}

// An abort at plan index 0 is a full no-op; an abort schedule that never
// fires commits normally.
func TestExecuteAbortEdges(t *testing.T) {
	g := gen.Mesh2D(8, 8)
	old := stream.HP(g, 4)
	now := old.Clone()
	for v := int32(0); v < 16; v++ {
		now.Assign[v] = (now.Assign[v] + 1) % 4
	}
	plan, err := NewPlan(old, now)
	if err != nil {
		t.Fatal(err)
	}

	stores := BuildStores(g, old)
	fab := faultsim.NewInjector(faultsim.Config{Script: []faultsim.Event{
		{Kind: faultsim.KindAbort, Round: 0, Index: 0},
	}})
	st, err := ExecuteWith(stores, plan, AppContext{}, fab)
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted", err)
	}
	if st.RolledBack != 0 {
		t.Fatalf("abort-at-0 rolled back %d vertices, want 0", st.RolledBack)
	}
	if err := Verify(stores, g, old); err != nil {
		t.Fatalf("abort-at-0 touched the stores: %v", err)
	}

	stores = BuildStores(g, old)
	quiet := faultsim.NewInjector(faultsim.Config{}) // rate 0, no script
	st, err = ExecuteWith(stores, plan, AppContext{}, quiet)
	if err != nil {
		t.Fatal(err)
	}
	if st.Aborted || st.MovedVertices != int64(len(plan.Moves)) {
		t.Fatalf("zero-fault fabric perturbed the migration: %+v", st)
	}
	if err := Verify(stores, g, now); err != nil {
		t.Fatal(err)
	}
}

// Sweep stochastic abort schedules: whatever the seed, the outcome is
// binary — fully migrated (Verify(now)) or fully rolled back
// (Verify(old)) — and identical seeds behave identically.
func TestExecuteFaultSweepAtomic(t *testing.T) {
	g := gen.RMAT(500, 2500, 0.57, 0.19, 0.19, 12)
	old := stream.DG(g, 5, stream.DefaultOptions())
	now := old.Clone()
	for v := int32(0); v < 120; v++ {
		now.Assign[v] = (now.Assign[v] + 2) % 5
	}
	plan, err := NewPlan(old, now)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 8; seed++ {
		outcome := func() (bool, int64) {
			stores := BuildStores(g, old)
			fab := faultsim.NewInjector(faultsim.Config{Seed: seed, Rate: 0.01})
			st, err := ExecuteWith(stores, plan, AppContext{}, fab)
			if err != nil {
				if !errors.Is(err, ErrAborted) {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if verr := Verify(stores, g, old); verr != nil {
					t.Fatalf("seed %d: aborted but not rolled back: %v", seed, verr)
				}
				return true, st.RolledBack
			}
			if verr := Verify(stores, g, now); verr != nil {
				t.Fatalf("seed %d: committed but wrong: %v", seed, verr)
			}
			return false, st.MovedVertices
		}
		a1, n1 := outcome()
		a2, n2 := outcome()
		if a1 != a2 || n1 != n2 {
			t.Fatalf("seed %d nondeterministic: (%v,%d) vs (%v,%d)", seed, a1, n1, a2, n2)
		}
	}
}

// The hooks run on the caller's goroutine in plan order, so they may
// write plain maps. The plan sends from and to every rank: every third
// vertex of a 40×40 mesh moves one rank on at k = 8. Save and Restore
// see the plan's vertices in plan order on commit and, under a scripted
// abort, on rollback.
func TestExecuteHooksRunInPlanOrder(t *testing.T) {
	g := gen.Mesh2D(40, 40)
	const k = 8
	old := stream.HP(g, k)
	now := old.Clone()
	for v := int32(0); v < g.NumVertices(); v += 3 {
		now.Assign[v] = (now.Assign[v] + 1) % k
	}
	plan, err := NewPlan(old, now)
	if err != nil {
		t.Fatal(err)
	}
	order := make([]int32, len(plan.Moves))
	for i, m := range plan.Moves {
		order[i] = m.Vertex
	}
	abortAt := len(plan.Moves) / 2
	for _, tc := range []struct {
		name   string
		fab    *faultsim.Injector
		want   []int32
		verify *partition.Partitioning
	}{
		{"commit", nil, order, now},
		{"rollback", faultsim.NewInjector(faultsim.Config{Script: []faultsim.Event{
			{Kind: faultsim.KindAbort, Round: 0, Index: abortAt},
		}}), order[:abortAt], old},
	} {
		t.Run(tc.name, func(t *testing.T) {
			saved := map[int32][]byte{}
			restored := map[int32][]byte{}
			var saveOrder, restoreOrder []int32
			ctx := AppContext{
				Save: func(v int32) []byte {
					saved[v] = binary.LittleEndian.AppendUint32(nil, uint32(v))
					saveOrder = append(saveOrder, v)
					return saved[v]
				},
				Restore: func(v int32, data []byte) {
					restored[v] = data
					restoreOrder = append(restoreOrder, v)
				},
			}
			stores := BuildStores(g, old)
			st, err := ExecuteWith(stores, plan, ctx, tc.fab)
			if tc.fab == nil {
				if err != nil {
					t.Fatal(err)
				}
				for r := 0; r < k; r++ {
					if st.PerRankSent[r] == 0 || st.PerRankRecv[r] == 0 {
						t.Fatalf("rank %d sent %d and received %d; the plan must touch every rank", r, st.PerRankSent[r], st.PerRankRecv[r])
					}
				}
			} else if !errors.Is(err, ErrAborted) {
				t.Fatalf("err = %v, want ErrAborted", err)
			}
			if !slices.Equal(saveOrder, tc.want) {
				t.Fatalf("Save saw %d vertices out of plan order, want the plan's first %d", len(saveOrder), len(tc.want))
			}
			if !slices.Equal(restoreOrder, tc.want) {
				t.Fatalf("Restore saw %d vertices out of plan order, want the plan's first %d", len(restoreOrder), len(tc.want))
			}
			for _, v := range tc.want {
				if !bytes.Equal(restored[v], saved[v]) {
					t.Fatalf("vertex %d: restored %v, saved %v", v, restored[v], saved[v])
				}
			}
			if err := Verify(stores, g, tc.verify); err != nil {
				t.Fatal(err)
			}
		})
	}
}
