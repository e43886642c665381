package bench

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Options are the command-line settings of one invocation.
type Options struct {
	Workload  string  // one workload in this process; empty = all, each in a child process
	Seed      int64   // churn schedule and per-epoch refinement seeds
	InputSeed int64   // graphs, initial partitions, and the refinement seed of the refine workloads
	Seconds   float64 // measuring window per workload; 0 = BENCHMARK.json's run_seconds
	Trace     int     // 0 untraced pass, 1 traced pass, -1 both (all-workloads mode only)
	Scale     string  // "full" or "tiny"
	Workers   int     // GOMAXPROCS and Config.Workers; 0 = online CPUs
	Spec      string  // path of BENCHMARK.json
	Out       string  // results file of an all-workloads run
	ResultOut string  // full Result of a one-workload run, for the parent
	TraceOut  string  // span file of a traced one-workload run
	Scratch   string  // directory for the files above when they are not named
}

// Main is the paragonbench command. It returns the process exit code.
func Main(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("paragonbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt Options
	var oversubscribe, compare bool
	fs.StringVar(&opt.Workload, "workload", "", "run this one workload in this process (default: all four, each in its own child process)")
	fs.Int64Var(&opt.Seed, "seed", 42, "seed of the churn schedule and its per-epoch refinements")
	fs.Int64Var(&opt.InputSeed, "input-seed", 42, "seed of the graphs, the METIS initial partition and the refine workloads' refinement; one value across runs keeps them comparable (see README, Seeds)")
	fs.Float64Var(&opt.Seconds, "seconds", 0, "measuring window per workload in seconds (default: run_seconds of BENCHMARK.json)")
	fs.IntVar(&opt.Trace, "trace", -1, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics (default: 0 with -workload, both without)")
	fs.StringVar(&opt.Scale, "scale", "full", "workload sizes: full or tiny (tests)")
	fs.IntVar(&opt.Workers, "workers", 0, "GOMAXPROCS and refinement workers (default: online CPUs)")
	fs.BoolVar(&oversubscribe, "allow-oversubscribe", false, "run even with more workers than online CPUs")
	fs.StringVar(&opt.Spec, "spec", "BENCHMARK.json", "path of BENCHMARK.json")
	fs.StringVar(&opt.Out, "out", "", "results file of an all-workloads run (default: <scratch>/results.json)")
	fs.StringVar(&opt.ResultOut, "result-out", "", "with -workload: also write the full result here")
	fs.StringVar(&opt.TraceOut, "trace-out", "", "with -workload -trace 1: span file (default: a file under <scratch>)")
	fs.StringVar(&opt.Scratch, "scratch", filepath.Join(".bench_build", "out"), "directory for result and span files that are not named")
	fs.BoolVar(&compare, "compare", false, "compare two results files: paragonbench -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := LoadSpec(opt.Spec)
	if err != nil {
		return fail(stderr, err)
	}
	if compare {
		if fs.NArg() != 2 {
			return fail(stderr, fmt.Errorf("-compare needs two results files"))
		}
		ok, err := Compare(spec, fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			return fail(stderr, err)
		}
		if !ok {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 {
		return fail(stderr, fmt.Errorf("unexpected argument %q", fs.Arg(0)))
	}
	if opt.Scale != "full" && opt.Scale != "tiny" {
		return fail(stderr, fmt.Errorf("-scale %q: want full or tiny", opt.Scale))
	}
	if opt.Workers <= 0 {
		opt.Workers = runtime.NumCPU()
	}
	if opt.Workers > runtime.NumCPU() && !oversubscribe {
		return fail(stderr, fmt.Errorf("%d workers on %d online CPUs would time the scheduler, not the code; pass -allow-oversubscribe to run anyway", opt.Workers, runtime.NumCPU()))
	}
	if opt.Seconds <= 0 {
		opt.Seconds = float64(spec.RunSeconds)
	}
	runtime.GOMAXPROCS(opt.Workers)
	if err := os.MkdirAll(opt.Scratch, 0o755); err != nil {
		return fail(stderr, err)
	}

	if opt.Workload != "" {
		if opt.Trace < 0 {
			opt.Trace = 0
		}
		return runOne(spec, opt, stdout, stderr)
	}
	return runAll(spec, opt, oversubscribe, stdout, stderr)
}

// fail reports err and returns the failure exit code.
func fail(stderr io.Writer, err error) int {
	fmt.Fprintf(stderr, "paragonbench: %v\n", err)
	return 1
}

// runOne is one pass of one workload in this process. Its last line of
// standard output is the one-object summary the benchmark contract fixes:
// every end-to-end metric on the untraced pass, every per-layer metric on
// the traced one; a per-layer metric that does not apply to the workload
// reads 0 there (the tables above it and the results file leave it out).
func runOne(spec *Spec, opt Options, stdout, stderr io.Writer) int {
	res, tr, err := runWorkload(spec, opt)
	if err != nil {
		return fail(stderr, err)
	}
	if tr != nil {
		if opt.TraceOut == "" {
			opt.TraceOut = filepath.Join(opt.Scratch, fmt.Sprintf("spans-%s-%d.json", opt.Workload, opt.Seed))
		}
		if err := tr.WriteFile(opt.TraceOut); err != nil {
			return fail(stderr, fmt.Errorf("write spans: %w", err))
		}
		res.TraceOut = opt.TraceOut
	}
	printResult(stdout, spec, res)
	if opt.ResultOut != "" {
		if err := writeJSON(opt.ResultOut, res); err != nil {
			return fail(stderr, err)
		}
	}

	declared := spec.EndToEnd
	if res.Traced {
		declared = spec.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for _, m := range declared {
		s, ok := res.Metrics[m.Name]
		if !ok && !res.Traced {
			return fail(stderr, fmt.Errorf("end-to-end metric %s was not measured", m.Name))
		}
		line.Metrics[m.Name] = value{s.Value, m.Unit}
	}
	out, err := json.Marshal(line)
	if err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stdout, "%s\n", out)
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload of BENCHMARK.json, each pass in its own
// child process so that no workload inherits another's heap, caches or
// peak RSS: first all untraced passes, then all traced ones.
func runAll(spec *Spec, opt Options, oversubscribe bool, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		return fail(stderr, err)
	}
	passes := []int{0, 1}
	if opt.Trace >= 0 {
		passes = []int{opt.Trace}
	}
	rep := Report{Schema: reportSchema, Env: captureEnv(opt.Workers), Seed: opt.Seed, InputSeed: opt.InputSeed, Scale: opt.Scale, Seconds: opt.Seconds}
	start := time.Now()
	ok := true
	for _, pass := range passes {
		for _, w := range spec.Workloads {
			resPath := filepath.Join(opt.Scratch, fmt.Sprintf("result-%s-%d.json", w.Name, pass))
			args := []string{
				"-workload", w.Name, "-trace", fmt.Sprint(pass), "-seed", fmt.Sprint(opt.Seed), "-input-seed", fmt.Sprint(opt.InputSeed),
				"-seconds", fmt.Sprint(opt.Seconds), "-scale", opt.Scale, "-workers", fmt.Sprint(opt.Workers),
				"-spec", opt.Spec, "-scratch", opt.Scratch, "-result-out", resPath,
			}
			if oversubscribe {
				args = append(args, "-allow-oversubscribe")
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = stdout, stderr
			runErr := cmd.Run()
			var res Result
			if err := readJSON(resPath, &res); err != nil {
				return fail(stderr, fmt.Errorf("workload %s pass %d left no result (%v): %w", w.Name, pass, runErr, err))
			}
			if runErr != nil || !res.Correct {
				ok = false
			}
			if pass == 0 {
				rep.Untraced = append(rep.Untraced, &res)
			} else {
				rep.Traced = append(rep.Traced, &res)
			}
			fmt.Fprintln(stdout)
		}
	}
	rep.TotalWallS = time.Since(start).Seconds()
	if opt.Out == "" {
		opt.Out = filepath.Join(opt.Scratch, "results.json")
	}
	if err := writeJSON(opt.Out, rep); err != nil {
		return fail(stderr, err)
	}
	printWallTimes(stdout, rep)
	fmt.Fprintf(stdout, "results written to %s\n", opt.Out)
	if !ok {
		fmt.Fprintln(stdout, "FAIL: the correctness gate missed; see the failures above")
		return 1
	}
	return 0
}

// printWallTimes closes an all-workloads run with the wall time of each pass.
func printWallTimes(w io.Writer, rep Report) {
	fmt.Fprintf(w, "wall time per workload (seed %d, scale %s):\n", rep.Seed, rep.Scale)
	for _, res := range append(append([]*Result(nil), rep.Untraced...), rep.Traced...) {
		fmt.Fprintf(w, "  %-20s %-8s %7.1f s  ops %d failed %d\n", res.Workload, passName(res.Traced), res.WallS, res.Attempted, res.Failed)
	}
	fmt.Fprintf(w, "  total %.1f s\n", rep.TotalWallS)
}

func passName(traced bool) string {
	if traced {
		return "traced"
	}
	return "untraced"
}

// printResult prints every metric the pass measured by name, with its
// unit, and on the traced pass the span self-time table.
func printResult(w io.Writer, spec *Spec, res *Result) {
	fmt.Fprintf(w, "== %s (%s pass) ==\n", res.Workload, passName(res.Traced))
	declared := spec.EndToEnd
	if res.Traced {
		declared = spec.PerLayer
	}
	for _, m := range declared {
		s, ok := res.Metrics[m.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%-32s %14.6g %-8s", m.Name, s.Value, s.Unit)
		if s.N > 0 {
			fmt.Fprintf(w, " %s of %d, median %.6g [%.6g .. %.6g]", s.Stat, s.N, s.Median, s.Min, s.Max)
		}
		if s.Note != "" {
			fmt.Fprintf(w, "  (%s)", s.Note)
		}
		fmt.Fprintln(w)
	}
	if res.Traced {
		var na []string
		for _, m := range declared {
			if _, ok := res.Metrics[m.Name]; !ok {
				na = append(na, m.Name)
			}
		}
		if len(na) > 0 {
			fmt.Fprintf(w, "not applicable to this workload: %s\n", strings.Join(na, " "))
		}
		fmt.Fprintf(w, "-- spans: %d, self time = span - children --\n", res.Spans)
		for _, st := range res.SelfTime {
			fmt.Fprintf(w, "%-36s n=%-6d total %10.4f s  self %10.4f s\n", st.Name, st.Count, st.TotalS, st.SelfS)
		}
	}
	keys := make([]string, 0, len(res.Hashes))
	for k := range res.Hashes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "hash %-27s %s\n", k, res.Hashes[k])
	}
	for _, n := range res.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	for _, f := range res.Failures {
		fmt.Fprintf(w, "FAILED: %s\n", f)
	}
	e := res.Env
	fmt.Fprintf(w, "env: %d online CPUs, GOMAXPROCS %d, workers %d, %s, GOGC %s, %s, commit %s, seed %d, input seed %d\n",
		e.OnlineCPUs, e.GOMAXPROCS, e.Workers, e.GoVersion, e.GOGC, e.CPUModel, e.Commit, res.Seed, res.InputSeed)
	fmt.Fprintf(w, "ops %d failed %d wall %.1f s\n", res.Attempted, res.Failed, res.WallS)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}
