package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry holds named metrics. Get-or-create accessors are safe for
// concurrent use and idempotent: the first registration of a name fixes
// its type, help string, and (for histograms) bucket bounds; later calls
// return the same instance. Exposition iterates names in sorted order,
// so the output is independent of registration order.
//
// Metric naming convention: <phase>_<quantity>[_total], where the phase
// prefix (refine, ship, exchange, migrate, fault) is what groups the
// human summary table (WriteSummary) into the per-phase breakdown.
type Registry struct {
	mu     sync.Mutex
	byName map[string]metric
}

// metric is the exposition surface every concrete type implements.
type metric interface {
	metricHelp() string
	metricType() string // "counter", "gauge", "histogram"
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]metric)}
}

// Counter is a monotonically increasing int64. Add is an atomic
// operation: integer addition is associative, so concurrent increments
// from worker goroutines reach the same total in any interleaving.
type Counter struct {
	help string
	v    atomic.Int64
}

// Add increments the counter by n (negative n is ignored — counters are
// monotone).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current total.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

func (c *Counter) metricHelp() string { return c.help }
func (c *Counter) metricType() string { return "counter" }

// Gauge is a float64 point-in-time value. Set must be called from
// coordinator (deterministically sequenced) call sites with
// deterministically computed values: float stores are not accumulative,
// so there is no order-free concurrent update discipline for gauges.
type Gauge struct {
	help string
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the stored value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

func (g *Gauge) metricHelp() string { return g.help }
func (g *Gauge) metricType() string { return "gauge" }

// Histogram is a fixed-bucket distribution of int64 observations.
// Bounds are upper-inclusive (Prometheus "le" semantics) and fixed at
// registration, so bucket counts — like counters — are associative
// atomic adds and any interleaving of Observe calls yields identical
// exposition. The sum is an int64 for the same reason: float
// accumulation would make the total depend on observation order.
type Histogram struct {
	help    string
	bounds  []int64 // ascending; implicit +Inf bucket at the end
	buckets []atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return h.bounds[i] >= v })
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

func (h *Histogram) metricHelp() string { return h.help }
func (h *Histogram) metricType() string { return "histogram" }

// Counter returns the counter registered under name, creating it with
// help on first use. A nil registry returns nil (and nil metrics accept
// all operations as no-ops), so call sites need no double guards.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		c, isC := m.(*Counter)
		if !isC {
			panic(fmt.Sprintf("obs: metric %q already registered as a %s", name, m.metricType()))
		}
		return c
	}
	c := &Counter{help: help}
	r.byName[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it with help
// on first use. A nil registry returns nil.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		g, isG := m.(*Gauge)
		if !isG {
			panic(fmt.Sprintf("obs: metric %q already registered as a %s", name, m.metricType()))
		}
		return g
	}
	g := &Gauge{help: help}
	r.byName[name] = g
	return g
}

// Histogram returns the histogram registered under name, creating it
// with help and the given ascending bucket bounds on first use. A nil
// registry returns nil. Bounds must be strictly ascending and non-empty;
// an implicit +Inf bucket is always appended.
func (r *Registry) Histogram(name, help string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		h, isH := m.(*Histogram)
		if !isH {
			panic(fmt.Sprintf("obs: metric %q already registered as a %s", name, m.metricType()))
		}
		return h
	}
	if len(bounds) == 0 {
		panic(fmt.Sprintf("obs: histogram %q needs at least one bucket bound", name))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not strictly ascending at %d", name, i))
		}
	}
	h := &Histogram{
		help:    help,
		bounds:  append([]int64(nil), bounds...),
		buckets: make([]atomic.Int64, len(bounds)+1),
	}
	r.byName[name] = h
	return h
}

// names returns all registered metric names in sorted order.
func (r *Registry) names() []string {
	out := make([]string, 0, len(r.byName))
	for name := range r.byName {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// PowersOfTwoBounds returns the canonical histogram bounds
// 0, 1, 2, 4, …, 2^maxExp — the fixed bucket layout the pipeline's
// count/byte distributions use.
func PowersOfTwoBounds(maxExp int) []int64 {
	if maxExp < 0 {
		maxExp = 0
	}
	out := make([]int64, 0, maxExp+2)
	out = append(out, 0)
	for e := 0; e <= maxExp; e++ {
		out = append(out, int64(1)<<e)
	}
	return out
}
