package dir

import (
	"sync"
	"sync/atomic"
	"testing"

	"paragon/internal/migrate"
)

// The torn-read acceptance test, concurrent form: reader goroutines
// hammer Lookup/Current while a publisher flips epochs as fast as it
// can. Every observed (vertex, rank, epoch) triple must match the one
// committed snapshot of that epoch — the publisher registers each
// epoch's expected assignment before the flip makes it visible — and
// each reader's observed epoch sequence must be monotone. Run under
// -race this also proves the lock-free read path clean.
func TestConcurrentLookupsDuringFlips(t *testing.T) {
	const (
		n       = 4096
		k       = 8
		flips   = 300
		readers = 4
	)
	assign := testAssign(n, k, 77)
	withShardBits(t, 8)
	d := mustNew(t, assign, k, Options{})

	var expected sync.Map // epoch int64 -> []int32
	expected.Store(int64(0), append([]int32(nil), assign...))

	var stop atomic.Bool
	var torn atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			x := uint64(r)*0x9e3779b97f4a7c15 + 1
			lastEpoch := int64(-1)
			for !stop.Load() {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				v := int32(x % n)
				rank, epoch := d.Lookup(v)
				if epoch < lastEpoch {
					torn.Add(1)
					return
				}
				lastEpoch = epoch
				want, ok := expected.Load(epoch)
				if !ok || want.([]int32)[v] != rank {
					torn.Add(1)
					return
				}
				// The snapshot form of the same invariant: a snapshot
				// read entirely after the load must be internally
				// consistent with its own epoch.
				s := d.Current()
				w2, ok := expected.Load(s.Epoch())
				if !ok || w2.([]int32)[v] != s.Rank(v) {
					torn.Add(1)
					return
				}
			}
		}(r)
	}

	target := append([]int32(nil), assign...)
	for f := 0; f < flips; f++ {
		for v := f % 5; v < n; v += 5 {
			target[v] = (target[v] + 1) % k
		}
		// Register the epoch's truth before any reader can observe it.
		expected.Store(int64(f+1), append([]int32(nil), target...))
		if _, err := d.PublishAssign(target); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	if torn.Load() != 0 {
		t.Fatalf("%d torn reads observed across %d flips", torn.Load(), flips)
	}
	if d.Epoch() != flips {
		t.Fatalf("final epoch = %d, want %d", d.Epoch(), flips)
	}
}

// Concurrent publishers must serialize cleanly: every publish lands on a
// distinct epoch, the journal stays parseable, and recovery matches.
func TestConcurrentPublishersSerialize(t *testing.T) {
	const n, k, writers, each = 512, 4, 4, 25
	assign := testAssign(n, k, 13)
	withShardBits(t, 7)
	d := mustNew(t, assign, k, Options{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				v := int32((w*each + i) % n)
				d.mu.Lock()
				from := d.cur.Load().Rank(v)
				_, err := d.publishLocked([]migrate.Move{{Vertex: v, From: from, To: (from + 1) % k}})
				d.mu.Unlock()
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if d.Epoch() != writers*each {
		t.Fatalf("epoch = %d, want %d (every publish a distinct epoch)", d.Epoch(), writers*each)
	}
	r, err := Recover(d.JournalBytes(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Current().AssignHash() != d.Current().AssignHash() {
		t.Fatal("recovery diverged after concurrent publishers")
	}
}

// FuzzEpochLookup drives a directory through fuzz-chosen publishes and
// lookups, asserting the paper-level invariant on every observation:
// each (vertex, rank, epoch) triple matches exactly one committed epoch
// snapshot, stale lookups forward to the live epoch, and recovery of the
// journal reproduces the live state.
func FuzzEpochLookup(f *testing.F) {
	f.Add(uint64(1), []byte{0x01, 0x22, 0x9f})
	f.Add(uint64(42), []byte{0xff, 0x00, 0x10, 0x80, 0x33, 0x71})
	f.Add(uint64(7), []byte{})
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		const n, k = 256, 4
		assign := testAssign(n, k, seed)
		withShardBits(t, 6)
		d, err := New(assign, k, Options{})
		if err != nil {
			t.Fatal(err)
		}
		committed := [][]int32{append([]int32(nil), assign...)} // index = epoch
		if len(ops) > 64 {
			ops = ops[:64]
		}
		target := append([]int32(nil), assign...)
		for _, op := range ops {
			v := int32(op) % n
			switch {
			case op&0x80 != 0: // publish: move a stride of vertices
				for u := v; u < n; u += 16 {
					target[u] = (target[u] + 1) % k
				}
				if _, err := d.PublishAssign(target); err != nil {
					t.Fatal(err)
				}
				committed = append(committed, append([]int32(nil), target...))
			default: // lookup at a fuzz-chosen pinned epoch
				live := int64(len(committed) - 1)
				pin := int64(op>>2) % (live + 2) // may exceed live by one
				r, err := d.LookupAt(pin, v)
				if pin > live {
					if err == nil {
						t.Fatalf("future epoch %d (live %d) served", pin, live)
					}
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				// The triple must match exactly one committed snapshot:
				// the one whose epoch it carries.
				if r.Epoch != live {
					t.Fatalf("lookup returned epoch %d, live is %d", r.Epoch, live)
				}
				if want := committed[r.Epoch][v]; r.Rank != want {
					t.Fatalf("epoch %d vertex %d = %d, want %d (torn read)", r.Epoch, v, r.Rank, want)
				}
				if r.Forwarded != (pin < live) {
					t.Fatalf("pin %d live %d: Forwarded = %v", pin, live, r.Forwarded)
				}
			}
		}
		// Whatever history the fuzzer chose, the journal reproduces it.
		rec, err := Recover(d.JournalBytes(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if rec.Epoch() != d.Epoch() || rec.Current().AssignHash() != d.Current().AssignHash() {
			t.Fatal("recovery diverged from fuzzed history")
		}
	})
}
