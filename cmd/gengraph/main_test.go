package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"paragon/internal/graph"
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
		{"-n 1", []string{"-rmat", "-n", "1"}, 1, "-n 1 out of range"},
		{"-n 0", []string{"-rmat", "-n", "0"}, 1, "-n 0 out of range"},
		{"-n past int32", []string{"-rmat", "-n", "4294967396", "-m", "300"}, 1, "-n 4294967396 out of range"},
		{"negative -m", []string{"-rmat", "-n", "200", "-m", "-5"}, 1, "-m -5"},
		{"zero -scale", []string{"-dataset", "wave", "-scale", "0"}, 1, "-scale 0"},
		{"negative -scale", []string{"-dataset", "wave", "-scale", "-1"}, 1, "-scale -1"},
		{"removed flag -shards", append(small, "-shards", "2"), 2, "flag provided but not defined: -shards"},
		{"removed flag -binary-out", append(small, "-binary-out", "x"), 2, "flag provided but not defined: -binary-out"},
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

	// -format binary writes, through -o, the graph the METIS run writes.
	path := filepath.Join(t.TempDir(), "g.bin")
	if code, _, stderr := run(t, bin, "-rmat", "-n", "200", "-m", "800", "-seed", "1", "-format", "binary", "-o", path); code != 0 {
		t.Fatalf("-format binary: exit code %d: %s", code, stderr)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := graph.ReadBinary(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	gm, err := graph.ReadMETIS(strings.NewReader(a))
	if err != nil {
		t.Fatalf("ReadMETIS: %v", err)
	}
	var wb, wm bytes.Buffer
	if err := graph.WriteBinary(&wb, gb); err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteBinary(&wm, gm); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wb.Bytes(), wm.Bytes()) {
		t.Fatal("-format binary and -format metis wrote different graphs for the same flags")
	}
}

// A refused -format leaves an existing -o file as it was: the format is
// checked before any file is created.
func TestCLIUnknownFormatKeepsOutput(t *testing.T) {
	bin := buildCLI(t)
	path := filepath.Join(t.TempDir(), "keep.txt")
	want := []byte("precious\n")
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := run(t, bin, "-rmat", "-n", "100", "-m", "300", "-format", "bogus", "-o", path)
	if code != 1 || !strings.Contains(stderr, `unknown format "bogus"`) || stdout != "" {
		t.Fatalf("exit code %d, stdout %q, stderr %q; want 1 and an unknown-format error", code, stdout, stderr)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("-o file after a refused -format: %q (%v), want %q", got, err, want)
	}
}
