package dir

import (
	"errors"
	"fmt"
	"testing"

	"paragon/internal/faultsim"
	"paragon/internal/obs"
)

// sweepOutcome is everything one faulty publish sequence produced; two
// runs are "bit-identical" iff their outcomes compare equal.
type sweepOutcome struct {
	finalEpoch int64
	finalHash  uint64
	ticks      int64
	faults     faultsim.Counters
	aborts     int64
	journalLen int
	pattern    string // per-publish 'c' committed / 'x' crashed / 'd' drop-exhausted
}

// runPublishSweep drives one directory through a fixed 24-publish
// sequence under fab, asserting the torn-read invariant at every step:
// a committed publish serves exactly its target assignment, a failed
// publish serves exactly the previous committed one — never a mixture.
func runPublishSweep(t *testing.T, fab *faultsim.Injector) sweepOutcome {
	t.Helper()
	const n, k, pubs = 512, 6, 24
	assign := testAssign(n, k, 1234)
	clk := faultsim.NewClock()
	reg := obs.NewRegistry()
	withShardBits(t, 7)
	d := mustNew(t, assign, int32(k), Options{Fabric: fab, Clock: clk, Metrics: reg})

	committedHash := d.Current().AssignHash()
	target := append([]int32(nil), assign...)
	pattern := make([]byte, 0, pubs)
	for pub := 0; pub < pubs; pub++ {
		for v := pub % 7; v < n; v += 7 {
			target[v] = (target[v] + 1 + int32(pub)%(k-1)) % k
		}
		// The intended post-flip state, independent of the directory.
		wantHash := buildSnapshot(target, k, 7, 0).AssignHash()
		_, err := d.PublishAssign(target)
		switch {
		case err == nil:
			if got := d.Current().AssignHash(); got != wantHash {
				t.Fatalf("publish %d: committed epoch hash %#x, want %#x (mixed-epoch state)", pub, got, wantHash)
			}
			committedHash = wantHash
			pattern = append(pattern, 'c')
		case errors.Is(err, ErrPublishCrashed):
			pattern = append(pattern, 'x')
		case errors.Is(err, ErrPublishFailed):
			pattern = append(pattern, 'd')
		default:
			t.Fatalf("publish %d: unexpected error %v", pub, err)
		}
		if err != nil {
			if got := d.Current().AssignHash(); got != committedHash {
				t.Fatalf("publish %d: failed publish leaked state: hash %#x, want %#x", pub, got, committedHash)
			}
		}
		// Recovery agrees with the live directory after every publish,
		// failed or not.
		r, rerr := Recover(d.JournalBytes(), Options{})
		if rerr != nil {
			t.Fatalf("publish %d: recovery failed: %v", pub, rerr)
		}
		if r.Epoch() != d.Epoch() || r.Current().AssignHash() != committedHash {
			t.Fatalf("publish %d: recovery diverged: epoch %d/%d hash %#x/%#x",
				pub, r.Epoch(), d.Epoch(), r.Current().AssignHash(), committedHash)
		}
	}
	return sweepOutcome{
		finalEpoch: d.Epoch(),
		finalHash:  d.Current().AssignHash(),
		ticks:      clk.Now(),
		faults:     fab.Counters(),
		aborts:     reg.Counter("dir_publish_aborts_total", "").Value(),
		journalLen: len(d.JournalBytes()),
		pattern:    string(pattern),
	}
}

// The publish-phase fault matrix: crash, drop, and straggler faults
// injected between prepare and flip at rates up to 0.6. Each cell must
// (a) never serve a mixed-epoch state, (b) recover bit-identically at
// every step (both asserted inside runPublishSweep), (c) replay
// bit-identically from the same seed, and (d) replay bit-identically
// from its realized schedule as a script.
func TestPublishFaultMatrix(t *testing.T) {
	rates := []float64{0.15, 0.3, 0.45, 0.6}
	seeds := []int64{7, 21}
	var totalFaults int64
	for _, rate := range rates {
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("rate=%v/seed=%d", rate, seed), func(t *testing.T) {
				cfg := faultsim.Config{Seed: seed, Rate: rate}
				first := runPublishSweep(t, faultsim.NewInjector(cfg))
				again := runPublishSweep(t, faultsim.NewInjector(cfg))
				if first != again {
					t.Fatalf("same-seed rerun diverged:\n  %+v\n  %+v", first, again)
				}
				// Replay the realized schedule as a script with the
				// stochastic layer off: same run, bit for bit.
				inj := faultsim.NewInjector(cfg)
				_ = runPublishSweep(t, inj)
				replay := runPublishSweep(t, faultsim.NewInjector(faultsim.Config{Script: inj.Realized()}))
				if replay != first {
					t.Fatalf("scripted replay diverged:\n  %+v\n  %+v", replay, first)
				}
				totalFaults += first.faults.Total()
			})
		}
	}
	// The matrix must actually exercise the fault machinery.
	if totalFaults == 0 {
		t.Fatal("fault matrix fired no faults at all")
	}
}

// At rate 1.0 every publish dies, the directory never leaves epoch 0,
// and recovery still works — the degenerate corner of the matrix.
func TestPublishTotalFaultRate(t *testing.T) {
	assign := testAssign(128, 3, 5)
	fab := faultsim.NewInjector(faultsim.Config{Seed: 3, Rate: 1})
	d := mustNew(t, assign, 3, Options{Fabric: fab})
	for i := 0; i < 5; i++ {
		a := append([]int32(nil), assign...)
		a[i] = (a[i] + 1) % 3
		if _, err := d.PublishAssign(a); !errors.Is(err, ErrPublishFailed) {
			t.Fatalf("publish %d survived rate 1.0: %v", i, err)
		}
	}
	if d.Epoch() != 0 {
		t.Fatalf("epoch = %d under total fault rate, want 0", d.Epoch())
	}
	r, err := Recover(d.JournalBytes(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Epoch() != 0 || r.Current().AssignHash() != d.Current().AssignHash() {
		t.Fatal("recovery diverged under total fault rate")
	}
}
