package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// buildCLI compiles this command into a temp dir.
func buildCLI(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "bspsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// gridFile writes a side×side grid as an edge list and returns its path.
func gridFile(t *testing.T, side int) string {
	t.Helper()
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
	path := filepath.Join(t.TempDir(), "grid.txt")
	if err := os.WriteFile(path, g.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCLIErrors(t *testing.T) {
	bin := buildCLI(t)
	grid := []string{"-in", gridFile(t, 12), "-format", "edgelist", "-nodes", "1"}
	with := func(extra ...string) []string { return append(append([]string(nil), grid...), extra...) }
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stderr string
	}{
		{"missing -in", nil, 1, "-in is required"},
		{"unreadable -in", []string{"-in", "/nonexistent/graph"}, 1, "no such file"},
		{"unknown format", with("-format", "nope"), 1, `unknown format "nope"`},
		{"wrong format", []string{"-in", grid[1], "-format", "binary"}, 1, "bspsim:"},
		{"unknown cluster", with("-cluster", "nope"), 1, `unknown cluster "nope"`},
		{"unknown partitioner", with("-partitioner", "nope"), 1, `unknown partitioner "nope"`},
		{"unknown refinement", with("-refine", "nope"), 1, `unknown refinement "nope"`},
		{"unknown app", with("-app", "nope"), 1, `unknown app "nope"`},
		{"undefined flag", []string{"-nope"}, 2, "flag provided but not defined: -nope"},
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

// The report is three fixed lines after any refinement/app lines, and the
// simulator is seeded: the same flags must print the same bytes. The
// refinement lines carry a wall-clock duration, so they are checked for
// shape and cut before the comparison.
func TestCLIOutputShapeAndDeterminism(t *testing.T) {
	bin := buildCLI(t)
	grid := []string{"-in", gridFile(t, 12), "-format", "edgelist", "-nodes", "1", "-shuffles", "2"}
	report := `app=%s cluster=\S+\(1 nodes, \d+ ranks\) partitioner=%s refine=%s\n` +
		`runs=\d+ supersteps=\d+ JET=\d+ \(model units\)\n` +
		`volume KB: intra-socket \d+, inter-socket \d+, inter-node \d+\n$`
	for _, tc := range []struct {
		app, cluster, partitioner, refine string
		prefix                            string // regexp of the lines before the report
	}{
		{"bfs", "pitt", "dg", "none", `^`},
		{"sssp", "gordon", "hp", "uniparagon", `^uniparagon refinement: \d+ moves, \S+\n`},
		{"wcc", "pitt", "ldg", "paragon", `^paragon refinement: \d+ moves, gain -?\d+, \S+\n`},
		{"pagerank", "pitt", "fennel", "parmetis", `^`},
		{"lpa", "pitt", "metis", "aragonlb", `^aragonlb: \d+ rebalance \+ \d+ refine moves, shipped \d+ bytes, \S+\n`},
		{"kcore", "pitt", "metis-kway", "none", `^3-core members: \d+ of 144 vertices\n`},
		{"triangles", "uma", "dg", "none", `^triangles: 0\n`},
	} {
		t.Run(tc.app+"/"+tc.refine, func(t *testing.T) {
			args := append(append([]string(nil), grid...),
				"-app", tc.app, "-cluster", tc.cluster, "-partitioner", tc.partitioner, "-refine", tc.refine)
			shape := regexp.MustCompile(tc.prefix + fmt.Sprintf(report, tc.app, tc.partitioner, tc.refine))
			var outs [2]string
			for i := range outs {
				out, err := exec.Command(bin, args...).CombinedOutput()
				if err != nil {
					t.Fatalf("%v\n%s", err, out)
				}
				if !shape.Match(out) {
					t.Fatalf("output does not match %s:\n%s", shape, out)
				}
				outs[i] = string(out)
				if tc.refine != "none" && tc.refine != "parmetis" {
					_, outs[i], _ = strings.Cut(outs[i], "\n") // the timed refinement line
				}
			}
			if outs[0] != outs[1] {
				t.Fatalf("the same flags produced different reports:\n%s\n---\n%s", outs[0], outs[1])
			}
		})
	}
}
