// Package bench is the repository's benchmark harness: it builds the four
// workloads of BENCHMARK.json from a seed, drives the public functions of
// the packages under ../internal from one goroutine in a closed loop,
// verifies every output, and reports the metrics BENCHMARK.json names.
//
// Layers are measured from outside: wall clocks around public calls,
// the Stats those calls return, and the deterministic obs.Registry
// counters read through Config.Metrics. Nothing under ../internal is
// instrumented for it.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
)

// MetricSpec is one metric declaration of BENCHMARK.json. Bound is the
// share of the baseline median by which an end-to-end metric may worsen;
// per-layer metrics carry none.
type MetricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// WorkloadSpec names one workload and why it exists.
type WorkloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// Spec is BENCHMARK.json: the single source of metric names, units,
// directions and bounds for the harness, its tests and -compare.
type Spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []WorkloadSpec `json:"workloads"`
	EndToEnd   []MetricSpec   `json:"end_to_end"`
	PerLayer   []MetricSpec   `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// LoadSpec reads and sanity-checks BENCHMARK.json.
func LoadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark spec: %w", err)
	}
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]MetricSpec(nil), s.EndToEnd...), s.PerLayer...) {
		if !nameRE.MatchString(m.Name) {
			return nil, fmt.Errorf("%s: bad metric name %q", path, m.Name)
		}
		if seen[m.Name] {
			return nil, fmt.Errorf("%s: metric %q declared twice", path, m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			return nil, fmt.Errorf("%s: metric %q: better = %q", path, m.Name, m.Better)
		}
	}
	if len(s.Workloads) == 0 || len(s.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s: no workloads or no end-to-end metrics", path)
	}
	return &s, nil
}

// metric returns the declaration of name and whether it is end-to-end.
func (s *Spec) metric(name string) (m MetricSpec, endToEnd, ok bool) {
	for _, m := range s.EndToEnd {
		if m.Name == name {
			return m, true, true
		}
	}
	for _, m := range s.PerLayer {
		if m.Name == name {
			return m, false, true
		}
	}
	return MetricSpec{}, false, false
}

// Sample is one reported metric: a statistic (Stat: the median or the
// mean) of its timed samples with their median, range and count beside
// it, or a single measured or derived value (N = 0).
type Sample struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Stat   string  `json:"stat,omitempty"`
	Median float64 `json:"median,omitempty"`
	Min    float64 `json:"min,omitempty"`
	Max    float64 `json:"max,omitempty"`
	N      int     `json:"n,omitempty"`
	Note   string  `json:"note,omitempty"`
	// Samples holds the individual values, in measuring order, where
	// there are at most a hundred of them.
	Samples []float64 `json:"samples,omitempty"`
}

// Result is what one pass of one workload produced.
type Result struct {
	Workload  string            `json:"workload"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	WallS     float64           `json:"wall_s"`
	Seed      int64             `json:"seed"`
	InputSeed int64             `json:"input_seed"`
	Env       Env               `json:"env"`
	Hashes    map[string]string `json:"hashes"`
	Metrics   map[string]Sample `json:"metrics"`
	Notes     []string          `json:"notes,omitempty"`
	SelfTime  []SelfTime        `json:"self_time,omitempty"`
	Spans     int               `json:"spans_n,omitempty"`
	TraceOut  string            `json:"trace_out,omitempty"`
}

// Report is the results file of one complete run (-out), the input of
// -compare. Claim is always null here: the benchmark measures, a later
// change claims.
type Report struct {
	Schema     string    `json:"schema"`
	Claim      *string   `json:"claim"`
	Env        Env       `json:"env"`
	Seed       int64     `json:"seed"`
	InputSeed  int64     `json:"input_seed"`
	Scale      string    `json:"scale"`
	Seconds    float64   `json:"seconds"`
	TotalWallS float64   `json:"total_wall_s"`
	Untraced   []*Result `json:"untraced"`
	Traced     []*Result `json:"traced"`
}

const reportSchema = "paragonbench/1"
