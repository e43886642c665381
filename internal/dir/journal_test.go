package dir

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"paragon/internal/faultsim"
	"paragon/internal/migrate"
	"paragon/internal/obs"
)

// buildHistory drives a directory through a mixed publish history —
// committed flips interleaved with a crashed publish and an exhausted
// retry budget — and records every committed epoch's full assignment.
// Returns the directory and the committed assignment per epoch.
func buildHistory(t testing.TB, n int, k int32) (*Directory, map[int64][]int32) {
	t.Helper()
	assign := testAssign(n, k, 99)
	// Fabric epochs 0..: publish 2 crashes between prepare and flip,
	// publish 4's prepare append exhausts the retry budget.
	var script []faultsim.Event
	script = append(script, faultsim.Event{Kind: faultsim.KindCrash, Round: 2, Index: 0})
	for attempt := 0; attempt <= faultsim.MaxRetries; attempt++ {
		script = append(script, faultsim.Event{Kind: faultsim.KindDrop, Round: 4, Index: opPrepare, Attempt: attempt})
	}
	fab := faultsim.NewInjector(faultsim.Config{Script: script})
	withShardBits(t, 7)
	d := mustNew(t, assign, k, Options{Fabric: fab})
	committed := map[int64][]int32{0: append([]int32(nil), assign...)}

	target := append([]int32(nil), assign...)
	for pub := 0; pub < 6; pub++ {
		for v := pub; v < n; v += 5 {
			target[v] = (target[v] + 1) % k
		}
		epoch, err := d.PublishAssign(target)
		switch pub {
		case 2, 4: // the scripted failures
			if !errors.Is(err, ErrPublishFailed) {
				t.Fatalf("publish %d: err = %v, want ErrPublishFailed", pub, err)
			}
		default:
			if err != nil {
				t.Fatalf("publish %d: %v", pub, err)
			}
			committed[epoch] = append([]int32(nil), target...)
		}
	}
	if d.Epoch() != 4 {
		t.Fatalf("final epoch = %d, want 4 (6 publishes, 2 failed)", d.Epoch())
	}
	return d, committed
}

func TestRecoverRoundTrip(t *testing.T) {
	d, committed := buildHistory(t, 700, 5)
	j := d.JournalBytes()
	reg := obs.NewRegistry()
	tr := obs.NewTracer(0)
	r, err := Recover(j, Options{Metrics: reg, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if r.Epoch() != d.Epoch() {
		t.Fatalf("recovered epoch = %d, want %d", r.Epoch(), d.Epoch())
	}
	if r.Current().AssignHash() != d.Current().AssignHash() {
		t.Fatal("recovered assignment hash differs from live directory")
	}
	want := committed[d.Epoch()]
	got := r.Current().AppendAssign(nil)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("vertex %d = %d, want %d", v, got[v], want[v])
		}
	}
	// The journal is complete (no torn tail) — recovery keeps it
	// byte-identical, so recovery is idempotent.
	if !bytes.Equal(r.JournalBytes(), j) {
		t.Fatal("recovered journal differs from the original")
	}
	if got := reg.Counter("dir_recoveries_total", "").Value(); got != 1 {
		t.Fatalf("dir_recoveries_total = %d, want 1", got)
	}
	if got := reg.Counter("dir_torn_bytes_total", "").Value(); got != 0 {
		t.Fatalf("dir_torn_bytes_total = %d, want 0", got)
	}
	evs := tr.Events()
	if len(evs) != 1 || evs[0].Kind != obs.KindDirRecovered || evs[0].N != d.Epoch() {
		t.Fatalf("trace = %+v, want one dir_recovered at epoch %d", evs, d.Epoch())
	}
	// The recovered instance keeps publishing where the original left
	// off, and its extended journal recovers too.
	a := r.Current().AppendAssign(nil)
	a[0] = (a[0] + 1) % 5
	if e, err := r.PublishAssign(a); err != nil || e != d.Epoch()+1 {
		t.Fatalf("publish on recovered directory = (%d, %v)", e, err)
	}
	r2, err := Recover(r.JournalBytes(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Epoch() != d.Epoch()+1 || r2.Current().AssignHash() != r.Current().AssignHash() {
		t.Fatal("second-generation recovery diverged")
	}
}

// The acceptance sweep: recovery from EVERY truncated journal prefix
// either fails loudly (the base record itself is torn) or rebuilds some
// committed epoch bit-identically — never a mix of epochs, never an
// uncommitted prepare, and never a regression as the prefix grows.
func TestRecoverTruncatedPrefixSweep(t *testing.T) {
	d, committed := buildHistory(t, 300, 4)
	j := d.JournalBytes()
	lastEpoch := int64(-1)
	recovered := 0
	for cut := 0; cut <= len(j); cut++ {
		r, err := Recover(j[:cut], Options{})
		if err != nil {
			if lastEpoch >= 0 {
				t.Fatalf("prefix %d failed after prefix recovery worked: %v", cut, err)
			}
			continue
		}
		recovered++
		epoch := r.Epoch()
		want, ok := committed[epoch]
		if !ok {
			t.Fatalf("prefix %d recovered epoch %d, which was never committed", cut, epoch)
		}
		if epoch < lastEpoch {
			t.Fatalf("prefix %d recovered epoch %d after a longer prefix gave %d", cut, epoch, lastEpoch)
		}
		lastEpoch = epoch
		got := r.Current().AppendAssign(nil)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("prefix %d epoch %d: vertex %d = %d, want %d (torn read materialized)", cut, epoch, v, got[v], want[v])
			}
		}
	}
	if lastEpoch != d.Epoch() {
		t.Fatalf("full journal recovered epoch %d, want %d", lastEpoch, d.Epoch())
	}
	if recovered == 0 {
		t.Fatal("no prefix recovered at all")
	}
}

func TestRecoverRejectsEmptyAndGarbage(t *testing.T) {
	if _, err := Recover(nil, Options{}); !errors.Is(err, ErrJournalCorrupt) {
		t.Fatalf("empty journal: err = %v, want ErrJournalCorrupt", err)
	}
	if _, err := Recover(bytes.Repeat([]byte{0xee}, 100), Options{}); !errors.Is(err, ErrJournalCorrupt) {
		t.Fatalf("garbage journal: err = %v, want ErrJournalCorrupt", err)
	}
}

func TestRecoverStopsAtMidJournalCorruption(t *testing.T) {
	d, committed := buildHistory(t, 300, 4)
	j := d.JournalBytes()
	// Flip one byte well past the base record: the checksum of the record
	// containing it fails, parsing stops there, and recovery lands on an
	// earlier committed epoch instead of serving corrupted mappings.
	j2 := append([]byte(nil), j...)
	j2[len(j2)/2] ^= 0xff
	r, err := Recover(j2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Epoch() >= d.Epoch() {
		t.Fatalf("corruption at the midpoint still recovered epoch %d", r.Epoch())
	}
	want := committed[r.Epoch()]
	got := r.Current().AppendAssign(nil)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("vertex %d = %d, want %d", v, got[v], want[v])
		}
	}
}

// Structural violations inside a well-checksummed prefix are corruption,
// not truncation: the writer cannot produce them, so recovery must fail
// loudly rather than guess.
func TestRecoverRejectsStructuralViolations(t *testing.T) {
	assign := testAssign(64, 2, 1)
	base := appendBaseRecord(nil, assign, 2, 6)
	plan := &migrate.Plan{K: 2, Moves: []migrate.Move{{Vertex: 0, From: assign[0], To: 1 - assign[0]}}}

	// Commit without its prepare.
	j := appendRecordBytes(append([]byte(nil), base...), recCommit, 1, binary.LittleEndian.AppendUint64(nil, 0))
	if _, err := Recover(j, Options{}); !errors.Is(err, ErrJournalCorrupt) {
		t.Fatalf("orphan commit: err = %v, want ErrJournalCorrupt", err)
	}

	// Prepare skipping an epoch.
	j = appendRecordBytes(append([]byte(nil), base...), recPrepare, 5, plan.AppendBinary(nil))
	if _, err := Recover(j, Options{}); !errors.Is(err, ErrJournalCorrupt) {
		t.Fatalf("epoch-skipping prepare: err = %v, want ErrJournalCorrupt", err)
	}

	// Prepare before any base record.
	j = appendRecordBytes(nil, recPrepare, 1, plan.AppendBinary(nil))
	if _, err := Recover(j, Options{}); !errors.Is(err, ErrJournalCorrupt) {
		t.Fatalf("prepare before base: err = %v, want ErrJournalCorrupt", err)
	}

	// Commit whose hash does not match the replayed delta.
	j = appendRecordBytes(append([]byte(nil), base...), recPrepare, 1, plan.AppendBinary(nil))
	j = appendRecordBytes(j, recCommit, 1, binary.LittleEndian.AppendUint64(nil, 0xdeadbeef))
	if _, err := Recover(j, Options{}); !errors.Is(err, ErrJournalCorrupt) {
		t.Fatalf("hash mismatch: err = %v, want ErrJournalCorrupt", err)
	}

	// Duplicate base.
	j = append(append([]byte(nil), base...), base...)
	if _, err := Recover(j, Options{}); !errors.Is(err, ErrJournalCorrupt) {
		t.Fatalf("duplicate base: err = %v, want ErrJournalCorrupt", err)
	}
}

func TestRecordParseRejectsTampering(t *testing.T) {
	rec := appendRecordBytes(nil, recPrepare, 3, []byte{1, 2, 3, 4})
	if _, _, _, _, ok := parseRecord(rec); !ok {
		t.Fatal("pristine record did not parse")
	}
	for i := range rec {
		bad := append([]byte(nil), rec...)
		bad[i] ^= 0x01
		if typ, epoch, payload, _, ok := parseRecord(bad); ok {
			// A flip in the checksum trailer could in principle collide,
			// but FNV over these bytes does not; everything else must
			// change the parse outcome.
			t.Fatalf("byte %d flip still parsed: typ=%d epoch=%d payload=%v", i, typ, epoch, payload)
		}
	}
	for cut := 0; cut < len(rec); cut++ {
		if _, _, _, _, ok := parseRecord(rec[:cut]); ok {
			t.Fatalf("truncation at %d still parsed", cut)
		}
	}
}

func TestRecoverRefusesShortBaseWithoutAllocatingIt(t *testing.T) {
	// A 12-byte base payload claiming 2^24 vertices at k = 2^30 (64 MB of
	// packed words) holds no words at all. Recovery must refuse it before
	// allocating the table the header describes: at n = k = 2^31 − 1 that
	// table would be 8 GB.
	payload := binary.LittleEndian.AppendUint32(nil, 1<<30)
	payload = binary.LittleEndian.AppendUint32(payload, 1<<24)
	payload = binary.LittleEndian.AppendUint32(payload, 16)
	j := appendRecordBytes(nil, recBase, 0, payload)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Recover(j, Options{})
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrJournalCorrupt) {
		t.Fatalf("err = %v, want ErrJournalCorrupt", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("refusing a %d-byte journal allocated %d bytes", len(j), got)
	}
}
