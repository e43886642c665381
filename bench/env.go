package bench

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// Env is the environment block of every result: enough to tell whether
// two result files are comparable.
type Env struct {
	OnlineCPUs int    `json:"online_cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	GoVersion  string `json:"go_version"`
	GOGC       string `json:"gogc"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
	OS         string `json:"os"`
}

func captureEnv(workers int) Env {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	return Env{
		OnlineCPUs: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    workers,
		GoVersion:  runtime.Version(),
		GOGC:       gogc,
		CPUModel:   procField("/proc/cpuinfo", "model name"),
		Commit:     commit(),
		OS:         runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// commit is the checked-out revision, or "unknown" where the benchmark
// runs from an exported tree rather than a git checkout.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// procField returns the value of the first "key : value" line of a /proc
// text file, or "unknown".
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is this process's resident-set high-water mark (VmHWM) in
// MiB, or 0 where /proc does not report one.
func peakRSSMB() float64 {
	kb, err := strconv.ParseFloat(strings.TrimSuffix(procField("/proc/self/status", "VmHWM"), " kB"), 64)
	if err != nil {
		return 0
	}
	return kb / 1024
}

// resetPeakRSS ends the set-up phase for memory accounting: it returns
// set-up's garbage to the OS and asks the kernel to restart this process's
// resident-set high-water mark (writing 5 to /proc/self/clear_refs), so
// that peak_rss_mb reads the built input plus what the measured calls
// add, not what the graph generator needed. It reports whether the kernel
// accepted; otherwise the mark keeps covering the whole process lifetime.
func resetPeakRSS() bool {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}
