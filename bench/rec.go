package bench

import (
	"fmt"
	"runtime"
	"sort"
	"time"
)

// rec collects what one pass of one workload measures: metric samples,
// spans (traced pass only), hashes, and the correctness gate's tally.
type rec struct {
	spec  *Spec
	opt   Options
	tr    *Tracer // nil on the untraced pass
	res   *Result
	start time.Time
	// rssReset: the kernel restarted the RSS high-water mark at endSetup.
	rssReset bool
}

func newRec(spec *Spec, opt Options, workload string) *rec {
	r := &rec{
		spec: spec, opt: opt, start: time.Now(),
		res: &Result{
			Workload: workload, Traced: opt.Trace == 1, Correct: true,
			Seed: opt.Seed, InputSeed: opt.InputSeed, Env: captureEnv(opt.Workers),
			Hashes: map[string]string{}, Metrics: map[string]Sample{},
		},
	}
	if r.res.Traced {
		r.tr = newTracer(workload)
	}
	return r
}

// check is one verification of the correctness gate: it counts as an
// attempted operation, and as a failed one when ok is false.
func (r *rec) check(ok bool, format string, args ...any) {
	r.res.Attempted++
	if !ok {
		r.res.Failed++
		r.res.Correct = false
		r.res.Failures = append(r.res.Failures, fmt.Sprintf(format, args...))
	}
}

// timed runs f inside a span of tr (which may be nil) and returns its
// wall time in seconds.
func timed(tr *Tracer, name string, f func()) float64 {
	id := tr.Begin(name)
	t := time.Now()
	f()
	d := time.Since(t)
	tr.End(id)
	return d.Seconds()
}

// set records a single measured or derived value.
func (r *rec) set(name string, v float64, note string) {
	r.put(name, Sample{Value: v, Note: note})
}

// setSamples records the median of xs (scaled into the metric's unit)
// with the range and count beside it.
func (r *rec) setSamples(name string, xs []float64, scale float64, note string) {
	r.summarize(name, "median", median(xs), xs, scale, note)
}

// setMean is setSamples for a metric defined as total time over count.
func (r *rec) setMean(name string, xs []float64, scale float64, note string) {
	r.summarize(name, "mean", sum(xs)/float64(len(xs)), xs, scale, note)
}

func (r *rec) summarize(name, stat string, value float64, xs []float64, scale float64, note string) {
	if len(xs) == 0 {
		return
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	s := Sample{Value: value * scale, Stat: stat, Median: median(xs) * scale, Min: lo * scale, Max: hi * scale, N: len(xs), Note: note}
	if len(xs) <= 100 {
		for _, x := range xs {
			s.Samples = append(s.Samples, x*scale)
		}
	}
	r.put(name, s)
}

// put files a metric under its declared unit. End-to-end metrics come from
// the untraced pass only and per-layer metrics from the traced pass only,
// so a metric of the other class is dropped here rather than at every
// call site.
func (r *rec) put(name string, s Sample) {
	m, endToEnd, ok := r.spec.metric(name)
	if !ok {
		panic(fmt.Sprintf("bench: metric %q is not declared in BENCHMARK.json", name))
	}
	if endToEnd == r.res.Traced {
		return
	}
	if _, dup := r.res.Metrics[name]; dup {
		panic(fmt.Sprintf("bench: metric %q recorded twice", name))
	}
	s.Unit = m.Unit
	r.res.Metrics[name] = s
}

func (r *rec) note(format string, args ...any) {
	r.res.Notes = append(r.res.Notes, fmt.Sprintf(format, args...))
}

// hash records a fingerprint that must repeat at a fixed seed, and gates
// on it agreeing with every earlier recording under the same key.
func (r *rec) hash(key string, h uint64) {
	s := fmt.Sprintf("%#016x", h)
	if prev, ok := r.res.Hashes[key]; ok {
		r.check(prev == s, "%s hash %s differs from the first recorded %s", key, s, prev)
		return
	}
	r.res.Hashes[key] = s
}

// setup repeats one build of the input: at least three times, because
// set-up time is a bounded end-to-end metric reported as a median, and up
// to fifteen while the builds are cheap enough to stay within three seconds
// in total. build runs each of its stages through stage, which times it
// inside a span and files the duration under the stage's per-layer metric;
// the sum of a build's stages is one setup_s sample. When the last build
// is done the set-up phase ends for memory accounting too.
func (r *rec) setup(build func(stage func(metric, span string, f func()))) {
	samples := map[string][]float64{}
	var total float64
	for i := 0; i < 3 || (i < 15 && total < 3); i++ {
		runtime.GC()
		id := r.tr.Begin("setup")
		var rep float64
		build(func(metric, span string, f func()) {
			d := timed(r.tr, span, f)
			samples[metric] = append(samples[metric], d)
			rep += d
		})
		r.tr.End(id)
		samples["setup_s"] = append(samples["setup_s"], rep)
		total += rep
	}
	for metric, xs := range samples {
		r.setSamples(metric, xs, 1, "")
	}
	r.rssReset = resetPeakRSS()
}

// peakRSS records peak_rss_mb at the end of the measured phase, which
// began when set-up ended.
func (r *rec) peakRSS() {
	note := "VmHWM from the end of set-up to the end of the timed calls"
	if !r.rssReset {
		note = "VmHWM of the whole process: the kernel refused to restart the mark after set-up"
	}
	r.set("peak_rss_mb", peakRSSMB(), note)
}

// window is the closed-loop measuring window: at least minReps
// iterations, then on until opt.Seconds of wall time have passed.
func (r *rec) window(minReps int, iter func(rep int)) {
	t0 := time.Now()
	for rep := 0; rep < minReps || time.Since(t0).Seconds() < r.opt.Seconds; rep++ {
		iter(rep)
	}
}

// runtimeMetrics records the Go runtime's own view of the pass.
func (r *rec) runtimeMetrics() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.set("runtime.gc_n", float64(ms.NumGC), "")
	r.set("runtime.gc_pause_ms", float64(ms.PauseTotalNs)/1e6, "")
	r.set("runtime.heap_peak_mb", float64(ms.HeapSys)/(1<<20), "HeapSys: heap address space obtained from the OS, a high-water mark")
}

func (r *rec) finish() *Result {
	r.res.WallS = time.Since(r.start).Seconds()
	if r.tr != nil {
		r.res.SelfTime = r.tr.SelfTimes()
		r.res.Spans = len(r.tr.spans)
	}
	return r.res
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the q-quantile of xs by linear interpolation between order
// statistics; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
