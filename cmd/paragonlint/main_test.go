package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// bin is this command, built once for every test in the package.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "paragonlint")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = filepath.Join(dir, "paragonlint")
	code := 1
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// run executes the binary in dir and returns stdout, stderr and the exit
// code.
func run(t *testing.T, dir string, args ...string) (string, string, int) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return stdout.String(), stderr.String(), code
}

const moduleRoot = "../.."

// The tree is lint-clean: every live suppression still matches a finding
// and nothing else is reported.
func TestModuleClean(t *testing.T) {
	stdout, stderr, code := run(t, moduleRoot)
	if code != 0 || stdout != "" {
		t.Fatalf("exit %d, want 0 with no output\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
}

// A hits fixture fails the gate with one "file:line:col: checker:
// message" line per finding, paths relative to the working directory:
// the fixture's golden, with the directory in front.
func TestHitsFixtureFails(t *testing.T) {
	const fixture = "internal/lint/testdata/maprange/hits"
	stdout, stderr, code := run(t, moduleRoot, "./"+fixture)
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	golden, err := os.ReadFile(filepath.Join(moduleRoot, fixture, "expect.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	for _, line := range strings.SplitAfter(string(golden), "\n") {
		if line != "" {
			want.WriteString(fixture + "/" + line)
		}
	}
	if stdout != want.String() {
		t.Fatalf("stdout:\n%s\nwant:\n%s", stdout, want.String())
	}
}

// The removed output formats and checker selection are usage errors.
func TestRemovedFlagsRejected(t *testing.T) {
	for _, flag := range []string{"-json", "-sarif", "-checkers", "-list"} {
		_, stderr, code := run(t, moduleRoot, flag, "x")
		if code != 2 || !strings.Contains(stderr, "flag provided but not defined: "+flag) {
			t.Errorf("%s: exit %d, stderr %q; want exit 2 and an undefined-flag error", flag, code, stderr)
		}
	}
}

// The kernel set is the facade's module-internal import closure: the
// module packages `go list -deps .` prints at the root, the same from a
// subdirectory run. The directory, the portfolio and the session sit
// inside it (the facade re-exports pull them in); if one dropped out,
// wallclock would silently stop covering it. The experiment layer stays
// outside: the facade does not import it, and its timing columns read
// the clock by design.
func TestKernelSetCoversServingLayers(t *testing.T) {
	stdout, stderr, code := run(t, moduleRoot, "-kernel")
	if code != 0 {
		t.Fatalf("exit %d\nstderr:\n%s", code, stderr)
	}
	golist, err := exec.Command("go", "list", "-C", moduleRoot, "-deps", ".").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	var deps []string
	for _, p := range strings.Fields(string(golist)) {
		if p == "paragon" || strings.HasPrefix(p, "paragon/") {
			deps = append(deps, p)
		}
	}
	sort.Strings(deps)
	if want := strings.Join(deps, "\n") + "\n"; stdout != want {
		t.Errorf("-kernel output:\n%s\nwant the module packages of go list -deps .:\n%s", stdout, want)
	}
	if sub, stderr, code := run(t, filepath.Join(moduleRoot, "internal", "paragon"), "-kernel", "."); code != 0 || sub != stdout {
		t.Errorf("-kernel . from internal/paragon: exit %d, output:\n%s\nwant the root's:\n%s\nstderr:\n%s", code, sub, stdout, stderr)
	}
	kernel := map[string]bool{}
	for _, p := range strings.Split(strings.TrimSpace(stdout), "\n") {
		kernel[p] = true
	}
	for _, pkg := range []string{"dir", "portfolio", "session"} {
		if !kernel["paragon/internal/"+pkg] {
			t.Errorf("paragon/internal/%s missing from -kernel output:\n%s", pkg, stdout)
		}
	}
	if kernel["paragon/internal/exp"] {
		t.Errorf("paragon/internal/exp in -kernel output, but the facade does not import it:\n%s", stdout)
	}
}
