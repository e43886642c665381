package bench

import (
	"sort"
	"time"
)

// Span is one traced interval around a call into a layer. Parent is the
// index of the span that caused it in the written span list, -1 for the
// workload's root span.
type Span struct {
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
}

// Tracer keeps spans in memory until the run ends. The harness drives
// everything from one goroutine, so the open-span stack is the causal
// chain. A nil *Tracer is the untraced pass: every method is a no-op.
type Tracer struct {
	workload string
	t0       time.Time
	spans    []Span
	open     []int
}

func newTracer(workload string) *Tracer {
	return &Tracer{workload: workload, t0: time.Now()}
}

// Begin opens a span under the innermost open one and returns its id.
func (t *Tracer) Begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, Span{Name: name, StartNS: time.Since(t.t0).Nanoseconds(), Parent: parent, Workload: t.workload})
	t.open = append(t.open, id)
	return id
}

// End closes span id, which must be the innermost open span.
func (t *Tracer) End(id int) {
	if t == nil {
		return
	}
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic("bench: spans closed out of order")
	}
	t.open = t.open[:len(t.open)-1]
	t.spans[id].EndNS = time.Since(t.t0).Nanoseconds()
}

// EndAs closes span id under a name known only once the call returned
// (an Ingest is classified by the BatchStats it returns).
func (t *Tracer) EndAs(id int, name string) {
	if t == nil {
		return
	}
	t.End(id)
	t.spans[id].Name = name
}

// SelfTime aggregates the spans of one name: Total is the sum of their
// durations, Self the part of that no child span covers.
type SelfTime struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// SelfTimes returns the per-name aggregation, largest self time first.
func (t *Tracer) SelfTimes() []SelfTime {
	if t == nil {
		return nil
	}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	byName := map[string]*SelfTime{}
	for i, s := range t.spans {
		st := byName[s.Name]
		if st == nil {
			st = &SelfTime{Name: s.Name}
			byName[s.Name] = st
		}
		d := s.EndNS - s.StartNS
		st.Count++
		st.TotalS += float64(d) / 1e9
		st.SelfS += float64(d-child[i]) / 1e9
	}
	out := make([]SelfTime, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfS != out[j].SelfS {
			return out[i].SelfS > out[j].SelfS
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Coverage is the share of span id's duration its direct children cover.
func (t *Tracer) Coverage(id int) float64 {
	if t == nil || id < 0 {
		return 0
	}
	var covered int64
	for _, s := range t.spans {
		if s.Parent == id {
			covered += s.EndNS - s.StartNS
		}
	}
	d := t.spans[id].EndNS - t.spans[id].StartNS
	if d <= 0 {
		return 0
	}
	return float64(covered) / float64(d)
}

// WriteFile writes every span once, as a JSON array.
func (t *Tracer) WriteFile(path string) error { return writeJSON(path, t.spans) }
