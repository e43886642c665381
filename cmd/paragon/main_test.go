package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildCLI compiles this command into a temp dir.
func buildCLI(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "paragon")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func TestCLIErrors(t *testing.T) {
	bin := buildCLI(t)
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stderr string
	}{
		{"missing -in", nil, 1, "-in is required"},
		{"unreadable -in", []string{"-in", "/nonexistent/graph"}, 1, "no such file"},
		{"unknown cluster", []string{"-topo", "-cluster", "nope"}, 1, `unknown cluster "nope"`},
		{"unknown format", []string{"-in", "/nonexistent/graph", "-format", "nope"}, 1, `unknown format "nope"`},
		// Removed with the legacy bench estate; the flag package rejects it.
		{"-dir-bench is gone", []string{"-dir-bench"}, 2, "flag provided but not defined: -dir-bench"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stderr bytes.Buffer
			cmd := exec.Command(bin, tc.args...)
			cmd.Stderr = &stderr
			err := cmd.Run()
			ee, ok := err.(*exec.ExitError)
			if !ok || ee.ExitCode() != tc.code {
				t.Fatalf("exit = %v, want code %d (stderr: %s)", err, tc.code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Fatalf("stderr %q does not contain %q", stderr.String(), tc.stderr)
			}
		})
	}
}

// The refinement is deterministic in -workers: the same seeded faulty run
// must write byte-identical assignment, trace, and metrics files.
func TestCLIOutputIdenticalAcrossWorkers(t *testing.T) {
	bin := buildCLI(t)
	dir := t.TempDir()
	const side = 12 // a side×side grid as an edge list
	var g bytes.Buffer
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			v := r*side + c
			if c+1 < side {
				fmt.Fprintf(&g, "%d %d\n", v, v+1)
			}
			if r+1 < side {
				fmt.Fprintf(&g, "%d %d\n", v, v+side)
			}
		}
	}
	in := filepath.Join(dir, "grid.txt")
	if err := os.WriteFile(in, g.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	kinds := []string{"assign", "trace", "metrics"}
	path := func(kind, workers string) string { return filepath.Join(dir, kind+workers) }
	for _, w := range []string{"1", "2"} {
		out, err := exec.Command(bin, "-in", in, "-format", "edgelist", "-k", "8", "-cluster", "uma", "-nodes", "1",
			"-partitioner", "hp", "-shuffles", "2", "-fault-rate", "0.3", "-workers", w,
			"-out", path("assign", w), "-trace", path("trace", w), "-metrics", path("metrics", w)).CombinedOutput()
		if err != nil {
			t.Fatalf("-workers %s: %v\n%s", w, err, out)
		}
		if !strings.Contains(string(out), "refinement:") {
			t.Fatalf("-workers %s: no refinement line in output:\n%s", w, out)
		}
	}
	for _, kind := range kinds {
		a, err := os.ReadFile(path(kind, "1"))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path(kind, "2"))
		if err != nil {
			t.Fatal(err)
		}
		if len(a) == 0 || !bytes.Equal(a, b) {
			t.Errorf("%s file differs between -workers 1 and 2 (or is empty)", kind)
		}
	}
}
