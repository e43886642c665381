package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

const (
	specPath = "../BENCHMARK.json"
	// childEnv turns the test binary into paragonbench itself, so that the
	// all-workloads mode can spawn its per-workload child processes.
	childEnv = "PARAGONBENCH_TEST_AS_MAIN"
)

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(Main(os.Args[1:], os.Stdout, os.Stderr))
	}
	code := m.Run()
	if tiny.dir != "" {
		os.RemoveAll(tiny.dir)
	}
	os.Exit(code)
}

// tiny is one complete all-workloads run at -scale tiny (both passes,
// eight child processes), shared by the tests below.
var tiny struct {
	once   sync.Once
	dir    string
	out    string
	stdout string
	code   int
	rep    Report
}

func runTiny(t *testing.T) {
	t.Helper()
	tiny.once.Do(func() {
		dir, err := os.MkdirTemp("", "paragonbench-test")
		if err != nil {
			t.Fatal(err)
		}
		tiny.dir, tiny.out = dir, filepath.Join(dir, "results.json")
		os.Setenv(childEnv, "1")
		defer os.Unsetenv(childEnv)
		var stdout, stderr bytes.Buffer
		tiny.code = Main([]string{"-scale", "tiny", "-seconds", "0.05", "-spec", specPath, "-scratch", dir, "-out", tiny.out}, &stdout, &stderr)
		tiny.stdout = stdout.String() + stderr.String()
		if tiny.code == 0 {
			if err := readJSON(tiny.out, &tiny.rep); err != nil {
				t.Fatal(err)
			}
		}
	})
	if tiny.code != 0 {
		t.Fatalf("all-workloads run exited %d:\n%s", tiny.code, tiny.stdout)
	}
}

func TestEveryDeclaredMetricIsEmitted(t *testing.T) {
	spec, err := LoadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	runTiny(t)
	rep := tiny.rep
	if rep.Claim != nil || rep.Schema != reportSchema {
		t.Errorf("report header: schema %q claim %v", rep.Schema, rep.Claim)
	}
	if len(rep.Untraced) != len(spec.Workloads) || len(rep.Traced) != len(spec.Workloads) {
		t.Fatalf("%d untraced and %d traced results for %d workloads", len(rep.Untraced), len(rep.Traced), len(spec.Workloads))
	}
	for i, w := range spec.Workloads {
		res := rep.Untraced[i]
		if res.Workload != w.Name || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s untraced: %+v", w.Name, res.Failures)
		}
		if res.Env.OnlineCPUs < 1 || res.Env.GoVersion == "" || res.Env.Workers != res.Env.GOMAXPROCS {
			t.Errorf("%s: environment block incomplete: %+v", w.Name, res.Env)
		}
		for _, m := range spec.EndToEnd {
			s, ok := res.Metrics[m.Name]
			if !ok || s.Unit != m.Unit || s.Value == 0 {
				t.Errorf("%s: end-to-end metric %s = %+v (emitted %v), want unit %q and a non-zero value", w.Name, m.Name, s, ok, m.Unit)
			}
			if !strings.Contains(tiny.stdout, m.Name) {
				t.Errorf("%s is not printed by name", m.Name)
			}
		}
		if len(res.Metrics) != len(spec.EndToEnd) {
			t.Errorf("%s untraced pass emitted %d metrics, want the %d end-to-end ones only", w.Name, len(res.Metrics), len(spec.EndToEnd))
		}
	}
	emitted := map[string]bool{}
	for i, w := range spec.Workloads {
		res := rep.Traced[i]
		if res.Workload != w.Name || !res.Correct || res.Failed != 0 {
			t.Errorf("%s traced: %+v", w.Name, res.Failures)
		}
		for name, s := range res.Metrics {
			m, endToEnd, ok := spec.metric(name)
			if !ok || endToEnd || s.Unit != m.Unit || !nameRE.MatchString(name) {
				t.Errorf("%s: traced pass emitted %q with unit %q, not a declared per-layer metric", w.Name, name, s.Unit)
			}
			emitted[name] = true
		}
	}
	for _, m := range spec.PerLayer {
		if !emitted[m.Name] {
			t.Errorf("per-layer metric %s is declared but no workload emits it", m.Name)
		}
	}
}

func TestSpansHaveResolvableParents(t *testing.T) {
	runTiny(t)
	for _, res := range tiny.rep.Traced {
		var spans []Span
		if err := readJSON(res.TraceOut, &spans); err != nil {
			t.Fatal(err)
		}
		if len(spans) != res.Spans || len(spans) == 0 {
			t.Fatalf("%s: %d spans on file, result says %d", res.Workload, len(spans), res.Spans)
		}
		roots := 0
		for i, s := range spans {
			switch {
			case s.Parent == -1:
				roots++
			case s.Parent < 0 || s.Parent >= i:
				t.Fatalf("%s: span %d (%s) has parent %d", res.Workload, i, s.Name, s.Parent)
			case spans[s.Parent].StartNS > s.StartNS || spans[s.Parent].EndNS < s.EndNS:
				t.Errorf("%s: span %d (%s) is not inside its parent %s", res.Workload, i, s.Name, spans[s.Parent].Name)
			}
			if s.EndNS < s.StartNS || s.Workload != res.Workload || s.Name == "" {
				t.Errorf("%s: malformed span %d: %+v", res.Workload, i, s)
			}
		}
		if roots != 1 {
			t.Errorf("%s: %d root spans, want 1", res.Workload, roots)
		}
	}
}

func TestCompare(t *testing.T) {
	spec, err := LoadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	runTiny(t)
	var out bytes.Buffer
	if ok, err := Compare(spec, tiny.out, tiny.out, &out); err != nil || !ok {
		t.Fatalf("a results file does not compare equal to itself (%v):\n%s", err, out.String())
	}

	mutate := func(name string, f func(*Report)) string {
		var rep Report
		data, _ := json.Marshal(tiny.rep)
		if err := json.Unmarshal(data, &rep); err != nil { // a deep copy: the mutation must not reach tiny.rep
			t.Fatal(err)
		}
		f(&rep)
		path := filepath.Join(tiny.dir, name)
		if err := writeJSON(path, rep); err != nil {
			t.Fatal(err)
		}
		return path
	}
	slower := mutate("slower.json", func(r *Report) {
		s := r.Untraced[0].Metrics["refine_s"]
		s.Value *= 1.5
		r.Untraced[0].Metrics["refine_s"] = s
	})
	rehashed := mutate("rehashed.json", func(r *Report) { r.Untraced[1].Hashes["assign"] = "0x0" })
	recounted := mutate("recounted.json", func(r *Report) {
		s := r.Traced[0].Metrics["paragon.pairs_n"]
		s.Value++
		r.Traced[0].Metrics["paragon.pairs_n"] = s
	})
	for _, path := range []string{slower, rehashed, recounted} {
		out.Reset()
		if ok, err := Compare(spec, tiny.out, path, &out); err != nil || ok {
			t.Errorf("%s passed the comparison (err %v):\n%s", filepath.Base(path), err, out.String())
		}
	}
	// The command-line form, exit codes included.
	if code := Main([]string{"-spec", specPath, "-compare", tiny.out, tiny.out}, &out, &out); code != 0 {
		t.Errorf("-compare of a file with itself exited %d", code)
	}
	if code := Main([]string{"-spec", specPath, "-compare", tiny.out, slower}, &out, &out); code == 0 {
		t.Error("-compare exited 0 on a violation")
	}
}

// The last line of a one-workload run is the contract's summary object:
// exactly four keys, every declared metric of the pass, value and unit.
func TestSummaryLine(t *testing.T) {
	spec, err := LoadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	for trace, declared := range [][]MetricSpec{spec.EndToEnd, spec.PerLayer} {
		var stdout, stderr bytes.Buffer
		code := Main([]string{"--workload", wlPortfolio, "--seed", "7", "--seconds", "0.05", "--trace", []string{"0", "1"}[trace],
			"-scale", "tiny", "-spec", specPath, "-scratch", t.TempDir()}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("exit %d: %s", code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("last line is not JSON: %v", err)
		}
		if len(line) != 4 {
			t.Errorf("summary has keys %v", line)
		}
		var metrics map[string]map[string]any
		if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if len(metrics) != len(declared) {
			t.Errorf("trace %d: %d metrics on the summary line, %d declared", trace, len(metrics), len(declared))
		}
		for _, m := range declared {
			got := metrics[m.Name]
			if len(got) != 2 || got["unit"] != m.Unit {
				t.Errorf("trace %d: metric %s = %v", trace, m.Name, got)
			}
		}
	}
}

func TestRefusesOversubscription(t *testing.T) {
	var out bytes.Buffer
	if code := Main([]string{"-workers", "4096", "-spec", specPath, "-scale", "tiny"}, &out, &out); code == 0 {
		t.Error("ran with 4096 workers without -allow-oversubscribe")
	}
	if !strings.Contains(out.String(), "allow-oversubscribe") {
		t.Errorf("refusal does not name the override: %s", out.String())
	}
}

func TestTracerSelfTimeAndCoverage(t *testing.T) {
	tr := newTracer("w")
	root := tr.Begin("root")
	a := tr.Begin("a")
	tr.End(a)
	b := tr.Begin("later-named")
	tr.EndAs(b, "b")
	tr.End(root)
	// Fix the clock readings so the arithmetic is exact.
	tr.spans[root].StartNS, tr.spans[root].EndNS = 0, 100
	tr.spans[a].StartNS, tr.spans[a].EndNS = 10, 40
	tr.spans[b].StartNS, tr.spans[b].EndNS = 40, 90
	if cov := tr.Coverage(root); cov != 0.8 {
		t.Errorf("coverage %v, want 0.8", cov)
	}
	for _, st := range tr.SelfTimes() {
		want := map[string]float64{"root": 20e-9, "a": 30e-9, "b": 50e-9}[st.Name]
		if st.SelfS != want || st.Count != 1 {
			t.Errorf("self time of %s = %v, want %v", st.Name, st.SelfS, want)
		}
	}
	var nilTracer *Tracer
	nilTracer.End(nilTracer.Begin("x")) // the untraced pass: no-ops
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if m := median(xs); m != 2.5 {
		t.Errorf("median %v", m)
	}
	if q := quantile(xs, 0.99); q < 3.9 || q > 4 {
		t.Errorf("p99 %v", q)
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
}
