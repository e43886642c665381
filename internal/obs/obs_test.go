package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestTracerSeqAndTickStamps(t *testing.T) {
	tr := NewTracer(8)
	tick := int64(0)
	tr.SetClock(func() int64 { return tick })
	tr.Emit(Event{Kind: KindRefineStart, Round: -1})
	tick = 5
	tr.Emit(Event{Kind: KindRoundStart, Round: 0, N: 4})
	ev := tr.Events()
	if len(ev) != 2 {
		t.Fatalf("got %d events, want 2", len(ev))
	}
	if ev[0].Seq != 0 || ev[1].Seq != 1 {
		t.Fatalf("seqs = %d, %d, want 0, 1", ev[0].Seq, ev[1].Seq)
	}
	if ev[0].Tick != 0 || ev[1].Tick != 5 {
		t.Fatalf("ticks = %d, %d, want 0, 5", ev[0].Tick, ev[1].Tick)
	}
}

func TestTracerRingDropsOldest(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Emit(Event{Kind: KindPairRefined, N: int64(i)})
	}
	ev := tr.Events()
	if len(ev) != 4 {
		t.Fatalf("retained %d events, want 4", len(ev))
	}
	for i, e := range ev {
		if want := int64(6 + i); e.N != want {
			t.Fatalf("event %d has N=%d, want %d (newest retained)", i, e.N, want)
		}
		if want := uint64(6 + i); e.Seq != want {
			t.Fatalf("event %d has Seq=%d, want %d", i, e.Seq, want)
		}
	}
	if tr.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", tr.Dropped())
	}
}

func TestCommitStagedMergesInCallOrder(t *testing.T) {
	// Two worker bufs staged out of order; the coordinator commits spans
	// in task order, so the merged stream is independent of which worker
	// held which span.
	tr := NewTracer(16)
	var b0, b1 Buf
	b1.Emit(Event{Kind: KindPairRefined, A: 2}) // task 1 staged on worker 1 first
	b0.Emit(Event{Kind: KindPairRefined, A: 1}) // task 0 staged on worker 0 second
	tr.CommitStaged(&b0, 0, 1)                  // task 0
	tr.CommitStaged(&b1, 0, 1)                  // task 1
	ev := tr.Events()
	if len(ev) != 2 || ev[0].A != 1 || ev[1].A != 2 {
		t.Fatalf("merged order wrong: %+v", ev)
	}
}

func TestTracerReset(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 6; i++ {
		tr.Emit(Event{Kind: KindRoundStart})
	}
	tr.Reset()
	if tr.Len() != 0 || tr.Dropped() != 0 {
		t.Fatalf("reset left %d events, %d dropped", tr.Len(), tr.Dropped())
	}
	tr.Emit(Event{Kind: KindRoundEnd})
	if ev := tr.Events(); len(ev) != 1 || ev[0].Seq != 0 {
		t.Fatalf("post-reset events = %+v, want one event with seq 0", ev)
	}
}

func TestRegistryIdempotentAndTyped(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("refine_moves_total", "kept moves")
	c2 := r.Counter("refine_moves_total", "ignored on re-register")
	if c1 != c2 {
		t.Fatal("Counter not idempotent")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("refine_moves_total", "wrong type")
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("refine_pair_moves", "moves per pair", []int64{0, 1, 4})
	for _, v := range []int64{0, 0, 1, 3, 4, 100} {
		h.Observe(v)
	}
	if h.Count() != 6 || h.Sum() != 108 {
		t.Fatalf("count=%d sum=%d, want 6, 108", h.Count(), h.Sum())
	}
	var buf bytes.Buffer
	if err := WriteProm(&buf, r); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`refine_pair_moves_bucket{le="0"} 2`,
		`refine_pair_moves_bucket{le="1"} 3`,
		`refine_pair_moves_bucket{le="4"} 5`,
		`refine_pair_moves_bucket{le="+Inf"} 6`,
		`refine_pair_moves_sum 108`,
		`refine_pair_moves_count 6`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestPromOutputSortedAndStable(t *testing.T) {
	// Registration order must not leak into the exposition: two
	// registries filled in opposite orders serialize identically.
	fill := func(names []string) *Registry {
		r := NewRegistry()
		for _, n := range names {
			r.Counter(n, "help for "+n).Add(7)
		}
		return r
	}
	a := fill([]string{"refine_rounds_total", "exchange_bytes_total", "migrate_vertices_total"})
	b := fill([]string{"migrate_vertices_total", "refine_rounds_total", "exchange_bytes_total"})
	var wa, wb bytes.Buffer
	if err := WriteProm(&wa, a); err != nil {
		t.Fatal(err)
	}
	if err := WriteProm(&wb, b); err != nil {
		t.Fatal(err)
	}
	if wa.String() != wb.String() {
		t.Fatalf("exposition depends on registration order:\n%s\nvs\n%s", wa.String(), wb.String())
	}
	if !strings.HasPrefix(wa.String(), "# HELP exchange_bytes_total") {
		t.Fatalf("exposition not name-sorted:\n%s", wa.String())
	}
}

func TestConcurrentCounterAndHistogram(t *testing.T) {
	// The order-free discipline: concurrent int adds from many
	// goroutines must reach the exact total.
	r := NewRegistry()
	c := r.Counter("exchange_bytes_total", "bytes")
	h := r.Histogram("exchange_msg_bytes", "per message", PowersOfTwoBounds(10))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Add(3)
				h.Observe(64)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 24000 {
		t.Fatalf("counter = %d, want 24000", c.Value())
	}
	if h.Count() != 8000 || h.Sum() != 512000 {
		t.Fatalf("histogram count=%d sum=%d, want 8000, 512000", h.Count(), h.Sum())
	}
}

func TestNilSafety(t *testing.T) {
	// A nil registry hands out nil metrics and every operation on them
	// is a no-op — call sites need a single top-level nil check at most.
	var r *Registry
	r.Counter("x", "").Inc()
	r.Gauge("y", "").Set(1)
	r.Histogram("z", "", []int64{1}).Observe(1)
	// A nil tracer is the same: the emission calls need no guard.
	var tr *Tracer
	tr.SetClock(func() int64 { return 1 })
	tr.Emit(Event{Kind: KindRoundStart})
	var staged Buf
	staged.Emit(Event{Kind: KindPairRefined})
	tr.CommitStaged(&staged, 0, staged.Mark())
	if err := WriteJSONL(&bytes.Buffer{}, tr); err != nil {
		t.Fatal(err)
	}
	if err := WriteProm(&bytes.Buffer{}, r); err != nil {
		t.Fatal(err)
	}
	if err := WriteSummary(&bytes.Buffer{}, r); err != nil {
		t.Fatal(err)
	}
}

func TestJSONLStableSchema(t *testing.T) {
	tr := NewTracer(4)
	tr.Emit(Event{Kind: KindPairRefined, Round: 2, A: 3, B: 9, N: 17, X: 1.5})
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, tr); err != nil {
		t.Fatal(err)
	}
	want := `{"seq":0,"tick":0,"kind":"pair_refined","round":2,"a":3,"b":9,"n":17,"m":0,"x":1.5}` + "\n"
	if buf.String() != want {
		t.Fatalf("jsonl = %q, want %q", buf.String(), want)
	}
}

func TestSummaryGroupsByPhase(t *testing.T) {
	r := NewRegistry()
	r.Counter("exchange_bytes_total", "").Add(100)
	r.Counter("refine_moves_total", "").Add(5)
	r.Gauge("migrate_cost", "").Set(2.5)
	var buf bytes.Buffer
	if err := WriteSummary(&buf, r); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	ri := strings.Index(out, "refine")
	ei := strings.Index(out, "exchange")
	mi := strings.Index(out, "migrate")
	if ri < 0 || ei < 0 || mi < 0 || !(ri < ei && ei < mi) {
		t.Fatalf("phase order wrong (refine < exchange < migrate expected):\n%s", out)
	}
}
