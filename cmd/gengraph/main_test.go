package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// buildCLI compiles this command into a temp dir.
func buildCLI(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "gengraph")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// run executes the CLI and returns its exit code and the two streams.
func run(t *testing.T, bin string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var o, e bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &o, &e
	if err := cmd.Run(); err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("%v: %v", args, err)
		}
		code = ee.ExitCode()
	}
	return code, o.String(), e.String()
}

func TestCLIErrors(t *testing.T) {
	bin := buildCLI(t)
	small := []string{"-rmat", "-n", "200", "-m", "800"}
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stderr string
	}{
		{"no source", nil, 1, "need -dataset, -rmat, or -list"},
		{"unknown dataset", []string{"-dataset", "nope"}, 1, `unknown dataset "nope"`},
		{"unknown format", append(small, "-format", "nope"), 1, `unknown format "nope"`},
		{"unwritable -o", append(small, "-o", "/nonexistent/dir/g.metis"), 1, "no such file"},
		{"undefined flag", []string{"-nope"}, 2, "flag provided but not defined: -nope"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := run(t, bin, tc.args...)
			if code != tc.code {
				t.Fatalf("exit code %d, want %d (stderr: %s)", code, tc.code, stderr)
			}
			if !strings.Contains(stderr, tc.stderr) {
				t.Fatalf("stderr %q does not contain %q", stderr, tc.stderr)
			}
			if stdout != "" {
				t.Fatalf("a failed run wrote to stdout: %q", stdout)
			}
		})
	}
}

// Every output mode has a fixed shape, and generation is a pure function
// of the flags: the same seed writes the same bytes, another seed does not.
func TestCLIOutputShapeAndDeterminism(t *testing.T) {
	bin := buildCLI(t)
	for _, tc := range []struct {
		name  string
		args  []string
		shape string // regexp the stdout must match
	}{
		{"metis", []string{"-rmat", "-n", "200", "-m", "800"}, `^200 \d+ 111 1\n(\d+ \d+( \d+ \d+)*\n){200}$`},
		{"edgelist", []string{"-rmat", "-n", "200", "-m", "800", "-format", "edgelist"}, `^# 200 \d+\n(\d+ \d+ \d+\n)+$`},
		{"sharded", []string{"-rmat", "-n", "200", "-m", "800", "-shards", "2", "-format", "edgelist"}, `^# 200 \d+\n(\d+ \d+ \d+\n)+$`},
		{"dataset", []string{"-dataset", "wave", "-scale", "0.01", "-format", "edgelist"}, `^# \d+ \d+\n(\d+ \d+ \d+\n)+$`},
		{"stats", []string{"-rmat", "-n", "200", "-m", "800", "-stats"}, `^vertices: +200\nedges: +\d+\ndegree: .*\ncomponents: .*\nclustering: .*\n`},
		{"list", []string{"-list"}, `^available dataset stand-ins.*\n(  \S+ +\S.*\n)+$`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, first, stderr := run(t, bin, tc.args...)
			if code != 0 {
				t.Fatalf("exit code %d: %s", code, stderr)
			}
			if !regexp.MustCompile(tc.shape).MatchString(first) {
				t.Fatalf("stdout does not match %s:\n%.400s", tc.shape, first)
			}
			if _, again, _ := run(t, bin, tc.args...); again != first {
				t.Fatal("the same flags produced different output")
			}
		})
	}
	_, a, _ := run(t, bin, "-rmat", "-n", "200", "-m", "800", "-seed", "1")
	_, b, _ := run(t, bin, "-rmat", "-n", "200", "-m", "800", "-seed", "2")
	if a == b {
		t.Fatal("-seed 1 and -seed 2 generated the same graph")
	}
}
