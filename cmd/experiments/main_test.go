package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"paragon/internal/exp"
)

// buildCLI compiles this command into a temp dir.
func buildCLI(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "experiments")
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
		stderr string
	}{
		{"undefined flag", []string{"-nope"}, "flag provided but not defined: -nope"},
		{"malformed -scale", []string{"-scale", "big"}, `invalid value "big" for flag -scale`},
		{"malformed -sources", []string{"-sources", "1.5"}, `invalid value "1.5" for flag -sources`},
		{"unknown experiment", []string{"-only", "fig99"}, `no experiment matched -only="fig99"`},
		{"only separators", []string{"-only", " , "}, `no experiment matched -only=" , "`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(bin, tc.args...)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			ee, ok := err.(*exec.ExitError)
			if !ok || ee.ExitCode() != 2 {
				t.Fatalf("exit = %v, want code 2 (stderr: %s)", err, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Fatalf("stderr %q does not contain %q", stderr.String(), tc.stderr)
			}
			if stdout.Len() != 0 {
				t.Fatalf("a refused run printed to stdout: %q", stdout.String())
			}
		})
	}
}

// TestCLIListMatchesManifest: -list prints one line per manifest entry,
// in manifest order, and runs nothing.
func TestCLIListMatchesManifest(t *testing.T) {
	bin := buildCLI(t)
	out, err := exec.Command(bin, "-list").CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	lines := strings.Split(strings.TrimSuffix(string(out), "\n"), "\n")
	manifest := exp.Manifest()
	if len(lines) != len(manifest) {
		t.Fatalf("-list printed %d lines, the manifest has %d entries:\n%s", len(lines), len(manifest), out)
	}
	for i, e := range manifest {
		if f := strings.Fields(lines[i]); len(f) == 0 || f[0] != e.ID || !strings.Contains(lines[i], e.What) {
			t.Fatalf("line %d = %q, want id %q and %q", i, lines[i], e.ID, e.What)
		}
	}
}

// The experiments are seeded and the tables below carry no wall-clock
// column, so the same flags must print the same bytes up to the closing
// "ran N tables in <duration>" line — in both output forms. At -scale 0.02
// a dataset stand-in has a few hundred vertices and a table takes
// milliseconds.
func TestCLIOutputShapeAndDeterminism(t *testing.T) {
	bin := buildCLI(t)
	closing := regexp.MustCompile(`\nran (\d+) tables in \S+ \(scale 0\.02, 1 sources\)\n$`)
	for _, tc := range []struct {
		only   string
		tables string
		csv    bool
		first  string // regexp the output starts with
	}{
		{"table1", "1", false, `^== table1: [^\n]* ==\narch +group `},
		{"table1", "1", true, `^# table1: [^\n]*\narch,group,`},
		{"fig12,lambda", "2", false, `^== fig12: `},
		{"streamorder, vertexcut ,cutmodels", "3", true, `^# vertexcut: `},
	} {
		t.Run(tc.only, func(t *testing.T) {
			args := []string{"-scale", "0.02", "-sources", "1", "-only", tc.only}
			if tc.csv {
				args = append(args, "-csv")
			}
			var outs [2]string
			for i := range outs {
				out, err := exec.Command(bin, args...).CombinedOutput()
				if err != nil {
					t.Fatalf("%v\n%s", err, out)
				}
				m := closing.FindSubmatchIndex(out)
				if m == nil || string(out[m[2]:m[3]]) != tc.tables {
					t.Fatalf("output does not end with the closing line for %s tables:\n%s", tc.tables, out)
				}
				if !regexp.MustCompile(tc.first).Match(out) {
					t.Fatalf("output does not start with %s:\n%s", tc.first, out)
				}
				outs[i] = string(out[:m[0]])
			}
			if outs[0] != outs[1] {
				t.Fatalf("the same flags produced different tables:\n%s\n---\n%s", outs[0], outs[1])
			}
		})
	}
}
