package faultsim

import (
	"sync"
	"testing"
)

func TestZeroRateNeverFires(t *testing.T) {
	in := NewInjector(Config{Seed: 99})
	for round := 0; round < 50; round++ {
		for g := 0; g < 16; g++ {
			if in.CrashGroup(round, g) {
				t.Fatalf("crash fired at rate 0 (round %d group %d)", round, g)
			}
			if d := in.GroupDelay(round, g); d != 0 {
				t.Fatalf("delay %d at rate 0", d)
			}
			if in.Drop(round, g, 0) {
				t.Fatal("drop fired at rate 0")
			}
			if in.AbortMigration(round, g) {
				t.Fatal("abort fired at rate 0")
			}
		}
	}
	if c := in.Counters(); c.Total() != 0 {
		t.Fatalf("counters %+v at rate 0", c)
	}
	if r := in.Realized(); len(r) != 0 {
		t.Fatalf("realized %v at rate 0", r)
	}
}

func TestRateOneAlwaysFires(t *testing.T) {
	in := NewInjector(Config{Seed: 7, Rate: 1})
	if !in.CrashGroup(0, 0) || !in.Drop(3, 1, 2) || !in.AbortMigration(0, 5) {
		t.Fatal("rate-1 decision did not fire")
	}
	if d := in.GroupDelay(1, 2); d < 1 || d > maxDelay {
		t.Fatalf("rate-1 delay %d outside [1, maxDelay]", d)
	}
}

// Decisions are pure functions of (seed, kind, coordinates): independent
// of query order and of which goroutine asks.
func TestDecisionsAreOrderIndependent(t *testing.T) {
	type q struct{ round, group int }
	var queries []q
	for round := 0; round < 10; round++ {
		for g := 0; g < 8; g++ {
			queries = append(queries, q{round, g})
		}
	}
	ask := func(in *Injector, reverse bool) map[q]bool {
		out := make(map[q]bool)
		for i := range queries {
			idx := i
			if reverse {
				idx = len(queries) - 1 - i
			}
			qu := queries[idx]
			out[qu] = in.CrashGroup(qu.round, qu.group)
		}
		return out
	}
	a := ask(NewInjector(Config{Seed: 5, Rate: 0.3}), false)
	b := ask(NewInjector(Config{Seed: 5, Rate: 0.3}), true)
	for qu, fired := range a {
		if b[qu] != fired {
			t.Fatalf("decision for %+v depends on query order", qu)
		}
	}
}

func TestConcurrentQueriesDeterministic(t *testing.T) {
	run := func() Counters {
		in := NewInjector(Config{Seed: 11, Rate: 0.25})
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for round := 0; round < 40; round++ {
					in.CrashGroup(round, w)
					in.GroupDelay(round, w)
					in.Drop(round, w, 0)
				}
			}(w)
		}
		wg.Wait()
		return in.Counters()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("concurrent runs diverged: %+v vs %+v", a, b)
	}
}

// Replaying the realized schedule of a stochastic run (script mode,
// rate 0) reproduces every decision exactly.
func TestRealizedScheduleReplays(t *testing.T) {
	live := NewInjector(Config{Seed: 42, Rate: 0.35})
	type obs struct {
		crash bool
		delay int64
		drop  bool
	}
	observe := func(in *Injector) []obs {
		var out []obs
		for round := 0; round < 20; round++ {
			for g := 0; g < 6; g++ {
				out = append(out, obs{
					crash: in.CrashGroup(round, g),
					delay: in.GroupDelay(round, g),
					drop:  in.Drop(round, g, 1),
				})
			}
		}
		return out
	}
	want := observe(live)
	sched := live.Realized()
	if len(sched) == 0 {
		t.Fatal("no faults fired at rate 0.35 over 360 points — hash suspect")
	}
	replay := NewInjector(Config{Script: sched})
	got := observe(replay)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("replay diverged at point %d: %+v vs %+v", i, want[i], got[i])
		}
	}
	// The replay's realized log matches the script it was fed.
	re := replay.Realized()
	if len(re) != len(sched) {
		t.Fatalf("replay realized %d events, script had %d", len(re), len(sched))
	}
	for i := range re {
		if re[i] != sched[i] {
			t.Fatalf("replay event %d = %+v, want %+v", i, re[i], sched[i])
		}
	}
}

func TestScriptedEventsFire(t *testing.T) {
	in := NewInjector(Config{Script: []Event{
		{Kind: KindCrash, Round: 2, Index: 1},
		{Kind: KindStraggler, Round: 0, Index: 3, Delay: 9},
		{Kind: KindDrop, Round: 1, Index: 0, Attempt: 2},
		{Kind: KindAbort, Round: 0, Index: 4},
	}})
	if !in.CrashGroup(2, 1) || in.CrashGroup(2, 0) || in.CrashGroup(1, 1) {
		t.Fatal("scripted crash coordinates wrong")
	}
	if d := in.GroupDelay(0, 3); d != 9 {
		t.Fatalf("scripted delay = %d, want 9", d)
	}
	if in.GroupDelay(0, 2) != 0 {
		t.Fatal("unscripted straggler fired")
	}
	if !in.Drop(1, 0, 2) || in.Drop(1, 0, 0) || in.Drop(1, 0, 1) {
		t.Fatal("scripted drop must hit only its attempt")
	}
	if !in.AbortMigration(0, 4) || in.AbortMigration(0, 3) {
		t.Fatal("scripted abort coordinates wrong")
	}
}

func TestNextEpochMonotone(t *testing.T) {
	in := NewInjector(Config{})
	for i := 0; i < 5; i++ {
		if e := in.NextEpoch(); e != i {
			t.Fatalf("epoch %d, want %d", e, i)
		}
	}
}

func TestClock(t *testing.T) {
	c := NewClock()
	if c.Now() != 0 {
		t.Fatal("clock not at zero")
	}
	if c.Advance(5) != 5 || c.Advance(-3) != 5 || c.Advance(2) != 7 {
		t.Fatalf("advance arithmetic wrong: now=%d", c.Now())
	}
}

func TestBackoffCapped(t *testing.T) {
	want := []int64{1, 2, 4, 8, 16, 16, 16}
	for i, w := range want {
		if got := Backoff(i); got != w {
			t.Fatalf("backoff(%d) = %d, want %d", i, got, w)
		}
	}
}

// The stochastic layer's empirical rate should be in the neighborhood of
// the configured rate (law of large numbers over 20k independent points).
func TestRateRoughlyHonored(t *testing.T) {
	in := NewInjector(Config{Seed: 3, Rate: 0.2})
	fired := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if in.Drop(i/100, i%100, 0) {
			fired++
		}
	}
	frac := float64(fired) / n
	if frac < 0.17 || frac > 0.23 {
		t.Fatalf("empirical rate %.4f far from 0.2", frac)
	}
}
