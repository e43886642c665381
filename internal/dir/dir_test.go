package dir

import (
	"errors"
	"strings"
	"testing"

	"paragon/internal/faultsim"
	"paragon/internal/migrate"
	"paragon/internal/obs"
)

// testAssign builds a deterministic pseudo-random assignment.
func testAssign(n int, k int32, seed uint64) []int32 {
	assign := make([]int32, n)
	x := seed*0x9e3779b97f4a7c15 + 1
	for v := range assign {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		assign[v] = int32(x % uint64(k))
	}
	return assign
}

func mustNew(t *testing.T, assign []int32, k int32, opts Options) *Directory {
	t.Helper()
	d, err := New(assign, k, opts)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewAndLookup(t *testing.T) {
	assign := testAssign(1000, 7, 1)
	d := mustNew(t, assign, 7, Options{ShardBits: 8})
	if d.Epoch() != 0 {
		t.Fatalf("fresh directory epoch = %d, want 0", d.Epoch())
	}
	for v, want := range assign {
		rank, epoch := d.Lookup(int32(v))
		if rank != want || epoch != 0 {
			t.Fatalf("Lookup(%d) = (%d, %d), want (%d, 0)", v, rank, epoch, want)
		}
	}
	got := d.Current().AppendAssign(nil)
	for v := range assign {
		if got[v] != assign[v] {
			t.Fatalf("AppendAssign[%d] = %d, want %d", v, got[v], assign[v])
		}
	}
	if _, err := New(assign, 0, Options{}); err == nil {
		t.Fatal("k = 0 accepted")
	}
	if _, err := New([]int32{0, 9}, 3, Options{}); err == nil {
		t.Fatal("out-of-range assignment accepted")
	}
}

func TestPublishFlipsEpochAndPreservesOldSnapshot(t *testing.T) {
	assign := testAssign(600, 4, 2)
	d := mustNew(t, assign, 4, Options{ShardBits: 7})
	before := d.Current()
	moves := []migrate.Move{
		{Vertex: 5, From: assign[5], To: (assign[5] + 1) % 4},
		{Vertex: 300, From: assign[300], To: (assign[300] + 2) % 4},
	}
	epoch, err := d.Publish(moves)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 || d.Epoch() != 1 {
		t.Fatalf("epoch after publish = %d/%d, want 1", epoch, d.Epoch())
	}
	for _, m := range moves {
		if rank, _ := d.Lookup(m.Vertex); rank != m.To {
			t.Fatalf("vertex %d = %d after flip, want %d", m.Vertex, rank, m.To)
		}
		// The pre-flip snapshot is immutable: a pinned reader still sees
		// the old epoch's answer.
		if before.Rank(m.Vertex) != m.From {
			t.Fatalf("old snapshot mutated: vertex %d = %d, want %d", m.Vertex, before.Rank(m.Vertex), m.From)
		}
	}
	if before.Epoch() != 0 {
		t.Fatalf("old snapshot epoch mutated to %d", before.Epoch())
	}
	// An empty delta is a legal epoch flip.
	if e, err := d.Publish(nil); err != nil || e != 2 {
		t.Fatalf("empty publish = (%d, %v), want (2, nil)", e, err)
	}
}

func TestPublishValidation(t *testing.T) {
	assign := testAssign(100, 3, 3)
	d := mustNew(t, assign, 3, Options{})
	j0 := d.JournalBytes()
	cases := []struct {
		name  string
		moves []migrate.Move
		want  string
	}{
		{"stale from", []migrate.Move{{Vertex: 1, From: assign[1] + 1, To: 0}}, "stale delta"},
		{"vertex range", []migrate.Move{{Vertex: 100, From: 0, To: 1}}, "out of range"},
		{"rank range", []migrate.Move{{Vertex: 1, From: assign[1], To: 3}}, "out of range"},
		{"dup vertex", []migrate.Move{
			{Vertex: 1, From: assign[1], To: (assign[1] + 1) % 3},
			{Vertex: 1, From: assign[1], To: (assign[1] + 2) % 3},
		}, "scheduled twice"},
	}
	for _, tc := range cases {
		_, err := d.Publish(tc.moves)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
	if d.Epoch() != 0 {
		t.Fatalf("rejected publishes advanced the epoch to %d", d.Epoch())
	}
	if j1 := d.JournalBytes(); len(j1) != len(j0) {
		t.Fatal("rejected publishes touched the journal")
	}
}

func TestPublishAssignDiffsAgainstLiveEpoch(t *testing.T) {
	assign := testAssign(500, 5, 4)
	d := mustNew(t, assign, 5, Options{ShardBits: 6})
	target := append([]int32(nil), assign...)
	for v := 0; v < 500; v += 3 {
		target[v] = (target[v] + 1) % 5
	}
	if _, err := d.PublishAssign(target); err != nil {
		t.Fatal(err)
	}
	got := d.Current().AppendAssign(nil)
	for v := range target {
		if got[v] != target[v] {
			t.Fatalf("vertex %d = %d, want %d", v, got[v], target[v])
		}
	}
	if d.Epoch() != 1 {
		t.Fatalf("epoch = %d, want 1", d.Epoch())
	}
	if _, err := d.PublishAssign(target[:100]); err == nil {
		t.Fatal("length-mismatched assignment accepted")
	}
}

func TestLookupAtForwardsStaleEpochs(t *testing.T) {
	assign := testAssign(200, 4, 5)
	d := mustNew(t, assign, 4, Options{})
	reg := obs.NewRegistry()
	d.mx = newDirMetrics(reg)
	v := int32(42)
	to := (assign[v] + 1) % 4
	if _, err := d.Publish([]migrate.Move{{Vertex: v, From: assign[v], To: to}}); err != nil {
		t.Fatal(err)
	}
	// Current client: straight answer.
	r, err := d.LookupAt(1, v)
	if err != nil || r.Forwarded || r.Rank != to || r.Epoch != 1 {
		t.Fatalf("current lookup = %+v, %v", r, err)
	}
	// Stale client pinned to epoch 0: deterministic forwarding hint.
	r, err = d.LookupAt(0, v)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Forwarded || r.Rank != to || r.Epoch != 1 {
		t.Fatalf("stale lookup = %+v, want forwarded to (rank %d, epoch 1)", r, to)
	}
	// Future epoch: protocol error, not a forward.
	if _, err := d.LookupAt(2, v); !errors.Is(err, ErrFutureEpoch) {
		t.Fatalf("future lookup err = %v, want ErrFutureEpoch", err)
	}
	if got := reg.Counter("dir_forwards_total", "").Value(); got != 1 {
		t.Fatalf("dir_forwards_total = %d, want 1", got)
	}
}

func TestPublishCrashLeavesPreviousEpochLive(t *testing.T) {
	assign := testAssign(400, 4, 7)
	// Script: the publisher of fabric-epoch 0 crashes between prepare
	// and flip.
	fab := faultsim.NewInjector(faultsim.Config{Script: []faultsim.Event{
		{Kind: faultsim.KindCrash, Round: 0, Index: 0},
	}})
	reg := obs.NewRegistry()
	d := mustNew(t, assign, 4, Options{Fabric: fab, Metrics: reg})
	moves := []migrate.Move{{Vertex: 9, From: assign[9], To: (assign[9] + 1) % 4}}
	_, err := d.Publish(moves)
	if !errors.Is(err, ErrPublishCrashed) || !errors.Is(err, ErrPublishFailed) {
		t.Fatalf("err = %v, want ErrPublishCrashed (is ErrPublishFailed)", err)
	}
	if d.Epoch() != 0 {
		t.Fatalf("crashed publish flipped the epoch to %d", d.Epoch())
	}
	if rank, _ := d.Lookup(9); rank != assign[9] {
		t.Fatalf("crashed publish leaked: vertex 9 = %d, want %d", rank, assign[9])
	}
	// The same delta republished (fabric-epoch 1, fault-free) commits.
	if e, err := d.Publish(moves); err != nil || e != 1 {
		t.Fatalf("republish = (%d, %v), want (1, nil)", e, err)
	}
	if got := reg.Counter("dir_publish_crashes_total", "").Value(); got != 1 {
		t.Fatalf("dir_publish_crashes_total = %d, want 1", got)
	}
	if got := reg.Counter("dir_epoch_flips_total", "").Value(); got != 1 {
		t.Fatalf("dir_epoch_flips_total = %d, want 1", got)
	}
}

func TestPublishDropRetriesOnVirtualClock(t *testing.T) {
	assign := testAssign(100, 3, 8)
	fab := faultsim.NewInjector(faultsim.Config{Script: []faultsim.Event{
		{Kind: faultsim.KindDrop, Round: 0, Index: opPrepare, Attempt: 0},
	}})
	clk := faultsim.NewClock()
	d := mustNew(t, assign, 3, Options{Fabric: fab, Clock: clk, FsyncTicks: 2})
	base := clk.Now() // the base-record fsync
	if _, err := d.Publish(nil); err != nil {
		t.Fatal(err)
	}
	// Prepare fsync'd twice (drop + retry), commit once, plus one base
	// backoff between the prepare attempts.
	want := base + 3*2 + faultsim.DefaultPolicy().Backoff(0)
	if clk.Now() != want {
		t.Fatalf("clock = %d ticks, want %d", clk.Now(), want)
	}
}

func TestPublishRetryBudgetExhausted(t *testing.T) {
	assign := testAssign(100, 3, 9)
	var script []faultsim.Event
	for attempt := 0; attempt <= faultsim.DefaultPolicy().MaxRetries; attempt++ {
		script = append(script, faultsim.Event{Kind: faultsim.KindDrop, Round: 0, Index: opCommit, Attempt: attempt})
	}
	fab := faultsim.NewInjector(faultsim.Config{Script: script})
	d := mustNew(t, assign, 3, Options{Fabric: fab})
	j0 := d.JournalBytes()
	moves := []migrate.Move{{Vertex: 1, From: assign[1], To: (assign[1] + 1) % 3}}
	_, err := d.Publish(moves)
	if !errors.Is(err, ErrPublishFailed) {
		t.Fatalf("err = %v, want ErrPublishFailed", err)
	}
	if d.Epoch() != 0 {
		t.Fatalf("failed publish flipped the epoch to %d", d.Epoch())
	}
	// The prepare record is durable (commit-less) — the journal grew by
	// exactly that prepare, and recovery ignores it.
	j1 := d.JournalBytes()
	if len(j1) <= len(j0) {
		t.Fatal("durable prepare missing from the journal")
	}
	r, err := Recover(j1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Epoch() != 0 {
		t.Fatalf("recovery saw the uncommitted epoch: %d", r.Epoch())
	}
	// Fabric-epoch 1 is fault-free: the directory catches up.
	if e, err := d.Publish(moves); err != nil || e != 1 {
		t.Fatalf("retry publish = (%d, %v), want (1, nil)", e, err)
	}
}

func TestPublishPlanCommitAndAbort(t *testing.T) {
	// Two ranks, four vertices, stores built by hand.
	assign := []int32{0, 0, 1, 1}
	newStores := func() []*migrate.Store {
		stores := []*migrate.Store{
			{Rank: 0, Vertices: map[int32]*migrate.VertexData{}},
			{Rank: 1, Vertices: map[int32]*migrate.VertexData{}},
		}
		for v, r := range assign {
			stores[r].Vertices[int32(v)] = &migrate.VertexData{VWeight: 1, VSize: 1}
		}
		return stores
	}
	plan := &migrate.Plan{K: 2, Moves: []migrate.Move{{Vertex: 1, From: 0, To: 1}}}

	d := mustNew(t, assign, 2, Options{})
	stores := newStores()
	epoch, st, err := d.PublishPlan(stores, plan, migrate.AppContext{})
	if err != nil || epoch != 1 {
		t.Fatalf("PublishPlan = (%d, %v), want (1, nil)", epoch, err)
	}
	if st.MovedVertices != 1 {
		t.Fatalf("moved = %d, want 1", st.MovedVertices)
	}
	if rank, _ := d.Lookup(1); rank != 1 {
		t.Fatalf("directory did not follow the migration: vertex 1 = %d", rank)
	}
	if _, ok := stores[1].Vertices[1]; !ok {
		t.Fatal("vertex 1 did not arrive at rank 1")
	}

	// An aborted migration rolls back and publishes nothing.
	fab := faultsim.NewInjector(faultsim.Config{Script: []faultsim.Event{
		{Kind: faultsim.KindAbort, Round: 0, Index: 0},
	}})
	d2 := mustNew(t, assign, 2, Options{Fabric: fab})
	stores2 := newStores()
	_, _, err = d2.PublishPlan(stores2, plan, migrate.AppContext{})
	if !errors.Is(err, migrate.ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted", err)
	}
	if d2.Epoch() != 0 {
		t.Fatalf("aborted migration flipped the directory to epoch %d", d2.Epoch())
	}
	if _, ok := stores2[0].Vertices[1]; !ok {
		t.Fatal("rollback did not restore vertex 1 to rank 0")
	}
}

func TestCopyOnWriteSharesUntouchedShards(t *testing.T) {
	assign := testAssign(1<<10, 4, 10)
	d := mustNew(t, assign, 4, Options{ShardBits: 6}) // 16 shards of 64
	s0 := d.Current()
	if _, err := d.Publish([]migrate.Move{{Vertex: 70, From: assign[70], To: (assign[70] + 1) % 4}}); err != nil {
		t.Fatal(err)
	}
	s1 := d.Current()
	for si := range s0.shards {
		if si == 1 { // vertex 70 lives in shard 1
			if s0.shards[si] == s1.shards[si] {
				t.Fatal("touched shard was not cloned")
			}
			continue
		}
		if s0.shards[si] != s1.shards[si] {
			t.Fatalf("untouched shard %d was copied", si)
		}
	}
}

func TestTraceEventsFromPublish(t *testing.T) {
	assign := testAssign(100, 3, 11)
	tr := obs.NewTracer(0)
	fab := faultsim.NewInjector(faultsim.Config{Script: []faultsim.Event{
		{Kind: faultsim.KindCrash, Round: 1, Index: 0},
	}})
	d := mustNew(t, assign, 3, Options{Trace: tr, Fabric: fab})
	if _, err := d.Publish(nil); err != nil { // fabric-epoch 0: clean
		t.Fatal(err)
	}
	if _, err := d.Publish(nil); !errors.Is(err, ErrPublishCrashed) { // epoch 1: crash
		t.Fatalf("err = %v, want crash", err)
	}
	var kinds []obs.Kind
	for _, e := range tr.Events() {
		kinds = append(kinds, e.Kind)
	}
	want := []obs.Kind{obs.KindEpochPrepare, obs.KindEpochCommit, obs.KindEpochPrepare, obs.KindEpochAbort}
	if len(kinds) != len(want) {
		t.Fatalf("events = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("event %d = %v, want %v", i, kinds[i], want[i])
		}
	}
}
