package bench

import (
	"fmt"
	"io"
	"strings"
)

// Compare applies the bounds of BENCHMARK.json to two results files —
// a the baseline, b the candidate — and prints one row per (workload,
// end-to-end metric) with both medians. It reports false when a metric
// worsened by more than its bound, when either side failed its
// correctness gate, or, for runs of the same seed and scale, when a hash
// or a count differs: those repeat exactly, so any difference is a
// behaviour change, not noise.
func Compare(spec *Spec, aPath, bPath string, w io.Writer) (bool, error) {
	var a, b Report
	if err := readJSON(aPath, &a); err != nil {
		return false, fmt.Errorf("read %s: %w", aPath, err)
	}
	if err := readJSON(bPath, &b); err != nil {
		return false, fmt.Errorf("read %s: %w", bPath, err)
	}
	if a.Schema != reportSchema || b.Schema != reportSchema {
		return false, fmt.Errorf("results files must carry schema %q", reportSchema)
	}
	ok := true
	violation := func(format string, args ...any) {
		ok = false
		fmt.Fprintf(w, "VIOLATION: "+format+"\n", args...)
	}
	exact := a.Seed == b.Seed && a.InputSeed == b.InputSeed && a.Scale == b.Scale
	if !exact {
		fmt.Fprintf(w, "seeds or scales differ (%d/%s vs %d/%s): hashes and counts are not compared\n", a.Seed, a.Scale, b.Seed, b.Scale)
	}
	if a.Env.OnlineCPUs != b.Env.OnlineCPUs || a.Env.Workers != b.Env.Workers {
		fmt.Fprintf(w, "warning: environments differ (%d CPUs/%d workers vs %d/%d); timings are not comparable\n",
			a.Env.OnlineCPUs, a.Env.Workers, b.Env.OnlineCPUs, b.Env.Workers)
	}

	fmt.Fprintf(w, "%-20s %-14s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "worse by", "bound")
	for _, ra := range a.Untraced {
		rb := find(b.Untraced, ra.Workload)
		if rb == nil {
			violation("%s: missing from %s", ra.Workload, bPath)
			continue
		}
		if !ra.Correct || !rb.Correct {
			violation("%s: correctness gate failed (a %d, b %d failed operations)", ra.Workload, ra.Failed, rb.Failed)
		}
		for _, m := range spec.EndToEnd {
			sa, oka := ra.Metrics[m.Name]
			sb, okb := rb.Metrics[m.Name]
			if !oka || !okb {
				violation("%s %s: not measured on both sides", ra.Workload, m.Name)
				continue
			}
			worse := (sb.Value - sa.Value) / sa.Value
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > m.Bound {
				verdict = "  VIOLATION"
				ok = false
			}
			fmt.Fprintf(w, "%-20s %-14s %14.6g %14.6g %+8.2f%% %6.1f%%%s\n",
				ra.Workload, m.Name, sa.Value, sb.Value, worse*100, m.Bound*100, verdict)
		}
		if exact {
			compareExact(ra, rb, violation)
		}
	}
	if exact {
		for _, ra := range a.Traced {
			if rb := find(b.Traced, ra.Workload); rb != nil {
				compareExact(ra, rb, violation)
			}
		}
	}
	if ok {
		fmt.Fprintln(w, "OK: b is within every bound of a")
	}
	return ok, nil
}

// compareExact checks what repeats exactly at a fixed seed: every hash,
// and every metric whose unit is a count.
func compareExact(a, b *Result, violation func(string, ...any)) {
	for k, ha := range a.Hashes {
		if hb := b.Hashes[k]; hb != ha {
			violation("%s (%s): hash %s is %s vs %s", a.Workload, passName(a.Traced), k, ha, hb)
		}
	}
	for name, sa := range a.Metrics {
		if sa.Unit != "count" || !strings.HasSuffix(name, "_n") || strings.HasPrefix(name, "runtime.") {
			continue
		}
		if sb, ok := b.Metrics[name]; !ok || sb.Value != sa.Value {
			violation("%s (%s): count %s is %v vs %v", a.Workload, passName(a.Traced), name, sa.Value, sb.Value)
		}
	}
}

func find(rs []*Result, workload string) *Result {
	for _, r := range rs {
		if r.Workload == workload {
			return r
		}
	}
	return nil
}
