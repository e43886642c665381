// Package faultsim is the deterministic fault injector behind PARAGON's
// degraded-mode recovery. Distributed refiners in the wild must survive
// worker loss, dropped reduces, and half-applied migrations; this package
// makes those failures *seeded and replayable* so the recovery semantics
// of internal/paragon, internal/dir, and internal/migrate can be swept
// and pinned by tests instead of hoped for.
//
// Three properties shape the design:
//
//   - Determinism under concurrency. Fault decisions are consumed from
//     parallel group servers, so a shared rand.Rand stream would make the
//     schedule depend on goroutine interleaving. Instead every decision is
//     a pure hash of (seed, kind, coordinates): any interleaving of
//     queries sees the same schedule, and identical (seed, rate) replays
//     bit-identically.
//
//   - Virtual time. Recovery needs backoff and timeouts, but the
//     determinism contract (DESIGN.md §10) bans wall-clock reads in
//     kernels. Clock is an abstract tick counter advanced explicitly by
//     the harness; paragonlint's wallclock checker stays green.
//
//   - Replayable schedules. An Injector records every fault that fired
//     (Realized) as an explicit event list that can be fed back as a
//     scripted schedule, reproducing the exact same run.
package faultsim

import (
	"sort"
	"sync"

	"paragon/internal/detrand"
	"paragon/internal/obs"
)

// Kind enumerates the injectable fault classes.
type Kind uint8

const (
	// KindCrash kills a group server mid-round: its refinement outcome is
	// lost and the round commits with the surviving groups.
	KindCrash Kind = iota
	// KindStraggler delays a group server by Delay virtual ticks; a delay
	// past the round timeout drops the group's outcome like a crash.
	KindStraggler
	// KindDrop loses one message (a region reduce, or a directory
	// journal append); the sender retries with capped backoff.
	KindDrop
	// KindAbort kills a migration mid-plan; every rank rolls back to its
	// pre-plan state.
	KindAbort
)

// String names the fault class for logs and test failures.
func (k Kind) String() string {
	switch k {
	case KindCrash:
		return "crash"
	case KindStraggler:
		return "straggler"
	case KindDrop:
		return "drop"
	case KindAbort:
		return "abort"
	}
	return "unknown"
}

// Event is one concrete fault: either an entry of a scripted schedule or
// a record of a stochastic decision that fired. The coordinate meaning is
// per kind:
//
//	KindCrash:     Round = refinement round, Index = group
//	KindStraggler: Round = refinement round, Index = group, Delay = ticks
//	KindDrop:      Round = round (or publish epoch), Index = region/op,
//	               Attempt = which delivery attempt is lost
//	KindAbort:     Round = migration epoch, Index = plan move index
type Event struct {
	Kind    Kind
	Round   int
	Index   int
	Attempt int
	Delay   int64
}

// maxDelay bounds stochastic straggler delays in virtual ticks: with a
// RoundTimeout of 16, roughly half the stragglers that fire are dropped.
const maxDelay = 32

// Config tunes an Injector.
type Config struct {
	// Seed drives the stochastic schedule; two injectors with the same
	// (Seed, Rate) produce identical schedules.
	Seed int64
	// Rate is the per-fault-point firing probability in [0, 1]. Zero
	// means the stochastic layer never fires (scripted events still do).
	Rate float64
	// Script is an explicit fault schedule applied on top of the
	// stochastic layer — typically a Realized() log being replayed.
	Script []Event
}

// Counters is a snapshot of the faults an Injector has fired.
type Counters struct {
	Crashes    int64
	Stragglers int64
	Drops      int64
	Aborts     int64
}

// Total is the number of fault events fired across all classes.
func (c Counters) Total() int64 { return c.Crashes + c.Stragglers + c.Drops + c.Aborts }

// Injector is the fault-point surface the pipeline consults: stochastic
// decisions hashed from a seed, plus an optional scripted schedule, with a
// realized-event log. A nil *Injector everywhere means a fault-free run —
// every consumer checks for nil before asking. The fault-point methods
// are safe for concurrent use and independent of call order.
type Injector struct {
	seed int64
	rate float64

	script map[scriptKey]Event

	// fired holds one obs counter per fault Kind (nil without Observe);
	// obs counters are atomic and nil-safe, so record increments them
	// without extending the critical section.
	fired [4]*obs.Counter

	mu       sync.Mutex
	epoch    int
	realized []Event
}

type scriptKey struct {
	kind         Kind
	round, index int
	attempt      int
}

// NewInjector builds an injector from cfg.
func NewInjector(cfg Config) *Injector {
	in := &Injector{seed: cfg.Seed, rate: cfg.Rate}
	if len(cfg.Script) > 0 {
		in.script = make(map[scriptKey]Event, len(cfg.Script))
		for _, ev := range cfg.Script {
			in.script[keyOf(ev)] = ev
		}
	}
	return in
}

func keyOf(ev Event) scriptKey {
	k := scriptKey{kind: ev.Kind, round: ev.Round, index: ev.Index}
	if ev.Kind == KindDrop {
		k.attempt = ev.Attempt
	}
	return k
}

// hash folds the seed, fault kind, and call-site coordinates into one
// uniform 64-bit value. Purely functional: no state, no ordering.
func (in *Injector) hash(kind Kind, a, b, c int) uint64 {
	h := detrand.Mix64(uint64(in.seed) ^ 0xa5a5a5a5a5a5a5a5)
	h = detrand.Mix64(h ^ uint64(kind))
	h = detrand.Mix64(h ^ uint64(int64(a)))
	h = detrand.Mix64(h ^ uint64(int64(b)))
	return detrand.Mix64(h ^ uint64(int64(c)))
}

// fires converts a hash to a Bernoulli(rate) draw. The top 53 bits give
// an exact dyadic uniform in [0,1), so rate 0 never fires and rate 1
// always fires.
func (in *Injector) fires(h uint64) bool {
	if in.rate <= 0 {
		return false
	}
	return float64(h>>11)/(1<<53) < in.rate
}

func (in *Injector) scripted(kind Kind, round, index, attempt int) (Event, bool) {
	if in.script == nil {
		return Event{}, false
	}
	k := scriptKey{kind: kind, round: round, index: index}
	if kind == KindDrop {
		k.attempt = attempt
	}
	ev, ok := in.script[k]
	return ev, ok
}

// Observe registers this injector's fired-fault counters
// (fault_injected_*_total) with r and increments them on every fault
// that fires from then on. Counter totals are order-free, so concurrent
// fault-point queries keep the registry deterministic. A nil injector or
// registry makes it a no-op.
func (in *Injector) Observe(r *obs.Registry) {
	if in == nil || r == nil {
		return
	}
	in.mu.Lock()
	in.fired = [4]*obs.Counter{
		KindCrash:     r.Counter("fault_injected_crashes_total", "group-server crash faults fired"),
		KindStraggler: r.Counter("fault_injected_stragglers_total", "straggler-delay faults fired"),
		KindDrop:      r.Counter("fault_injected_drops_total", "message-drop faults fired"),
		KindAbort:     r.Counter("fault_injected_aborts_total", "migration-abort faults fired"),
	}
	in.mu.Unlock()
}

func (in *Injector) record(ev Event) {
	in.mu.Lock()
	in.realized = append(in.realized, ev)
	fired := in.fired[ev.Kind]
	in.mu.Unlock()
	fired.Inc()
}

// NextEpoch returns a fresh epoch for a standalone operation (a
// directory publish, a migration Execute) so repeated operations under
// one injector see distinct schedules.
func (in *Injector) NextEpoch() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	e := in.epoch
	in.epoch++
	return e
}

// CrashGroup reports whether group's server crashes in round.
func (in *Injector) CrashGroup(round, group int) bool {
	if _, ok := in.scripted(KindCrash, round, group, 0); !ok {
		if !in.fires(in.hash(KindCrash, round, group, 0)) {
			return false
		}
	}
	in.record(Event{Kind: KindCrash, Round: round, Index: group})
	return true
}

// GroupDelay returns the straggler delay, in virtual ticks, injected
// into group's server in round (0 = on time).
func (in *Injector) GroupDelay(round, group int) int64 {
	var delay int64
	if ev, ok := in.scripted(KindStraggler, round, group, 0); ok {
		delay = ev.Delay
	} else {
		h := in.hash(KindStraggler, round, group, 0)
		if !in.fires(h) {
			return 0
		}
		// Reuse the untested low bits for the magnitude so the firing
		// draw and the delay draw stay independent-ish but replayable.
		delay = 1 + int64(detrand.Mix64(h)%maxDelay)
	}
	if delay <= 0 {
		return 0
	}
	in.record(Event{Kind: KindStraggler, Round: round, Index: group, Delay: delay})
	return delay
}

// Drop reports whether delivery attempt of message op in round (or
// epoch) is lost.
func (in *Injector) Drop(round, op, attempt int) bool {
	if _, ok := in.scripted(KindDrop, round, op, attempt); !ok {
		if !in.fires(in.hash(KindDrop, round, op, attempt)) {
			return false
		}
	}
	in.record(Event{Kind: KindDrop, Round: round, Index: op, Attempt: attempt})
	return true
}

// AbortMigration reports whether the migration of epoch aborts at plan
// move index move.
func (in *Injector) AbortMigration(epoch, move int) bool {
	if _, ok := in.scripted(KindAbort, epoch, move, 0); !ok {
		if !in.fires(in.hash(KindAbort, epoch, move, 0)) {
			return false
		}
	}
	in.record(Event{Kind: KindAbort, Round: epoch, Index: move})
	return true
}

// Counters snapshots the fired-fault counts: the realized log by kind.
func (in *Injector) Counters() Counters {
	var n [4]int64
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, ev := range in.realized {
		n[ev.Kind]++
	}
	return Counters{Crashes: n[KindCrash], Stragglers: n[KindStraggler], Drops: n[KindDrop], Aborts: n[KindAbort]}
}

// Realized returns the schedule that actually fired, sorted by
// (Kind, Round, Index, Attempt) so concurrent query order cannot leak
// into it. Feeding it back as Config.Script (with Rate 0) replays the
// run exactly.
func (in *Injector) Realized() []Event {
	in.mu.Lock()
	out := append([]Event(nil), in.realized...)
	in.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Round != b.Round {
			return a.Round < b.Round
		}
		if a.Index != b.Index {
			return a.Index < b.Index
		}
		return a.Attempt < b.Attempt
	})
	return out
}

// Clock is the virtual time source: a bare tick counter the harness
// advances explicitly. It exists so backoff and timeouts have a time
// axis without any wall-clock read.
type Clock struct {
	mu  sync.Mutex
	now int64
}

// NewClock returns a clock at tick zero.
func NewClock() *Clock { return &Clock{} }

// Now returns the current virtual tick.
func (c *Clock) Now() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward d ticks (negative d is ignored) and
// returns the new time.
func (c *Clock) Advance(d int64) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d > 0 {
		c.now += d
	}
	return c.now
}

// The recovery policy, in virtual ticks. A dropped message is retried
// MaxRetries times after the first loss before the operation is
// abandoned; a group server slower than RoundTimeout (crashed servers
// never answer) has its outcome discarded and the round commits without
// it.
const (
	MaxRetries   = 4
	RoundTimeout = 16
	backoffCap   = 16 // Backoff's ceiling
)

// Backoff returns the capped exponential backoff, in virtual ticks,
// before retry attempt (0-based: the wait after the attempt-th loss):
// 1, 2, 4, 8, then 16.
func Backoff(attempt int) int64 {
	b := int64(1)
	for i := 0; i < attempt && b < backoffCap; i++ {
		b <<= 1
	}
	return b
}

// Deliver is the one retry/backoff loop for a droppable message: it
// attempts to send message op of round (or epoch) under the injector f,
// retrying with the capped Backoff until the message is delivered or the
// retry budget is exhausted. Each attempt (including lost ones — the
// bytes went out) costs size bytes; each backoff advances clk when one is
// installed. It returns the total bytes spent, the
// number of retries performed, and whether the message arrived — on
// false it was dropped retries+1 times. onRetry, when non-nil, runs on
// the caller's goroutine after each backoff with the lost attempt's
// index and the ticks waited: the hook callers hang their own
// accounting and trace events on.
func Deliver(f *Injector, clk *Clock, round, op int, size int64, onRetry func(attempt int, backoff int64)) (bytes int64, retries int, delivered bool) {
	for attempt := 0; ; attempt++ {
		bytes += size
		if f == nil || !f.Drop(round, op, attempt) {
			return bytes, retries, true
		}
		if attempt >= MaxRetries {
			return bytes, retries, false
		}
		b := Backoff(attempt)
		if clk != nil {
			clk.Advance(b)
		}
		if onRetry != nil {
			onRetry(attempt, b)
		}
		retries++
	}
}
