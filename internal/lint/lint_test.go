package lint

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata expect.txt golden files")

// fixtureCheckers is the full suite with permissive scope predicates:
// fixture packages are always "deterministic" and always "kernel". The
// interprocedural state (call graph, taint) is built per fixture: the
// checked package's exported functions are the kernel roots, and the
// analysis set adds whatever helper packages the fixture imported from
// beneath its own directory (the crosspkg case).
func fixtureCheckers(loader *Loader, pkg *Package) []Checker {
	taint := &Taint{}
	if pkg != nil {
		analysis := []*Package{pkg}
		for _, p := range loader.AllLoaded() {
			if strings.HasPrefix(p.Path, pkg.Path+"/") {
				analysis = append(analysis, p)
			}
		}
		graph := BuildCallGraph(analysis)
		roots := graph.ExportedRoots(pkg.Path)
		taint = NewTaint(graph, roots, []*Package{pkg}, analysis)
	}
	return []Checker{
		MapRange{}, GlobalRand{}, WallClock{}, LoopRace{}, FloatSum{},
		SharedWrite{}, ReduceOrder{}, taint, StaleIgnore{},
	}
}

// TestFixtures loads every fixture package under testdata and compares
// the diagnostics against the expect.txt golden next to it. Layout is
// testdata/<checker>/<case>/ (only that checker's findings are golden)
// or testdata/<name>/ directly (all findings are golden — used by the
// suppress fixture, whose lint-malformed diagnostics come from the
// framework itself). Golden lines are "file.go:line:col: checker:
// message", so a drifting position fails the test. Regenerate with
// go test ./internal/lint -run TestFixtures -update.
func TestFixtures(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	roots, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	for _, root := range roots {
		if !root.IsDir() {
			continue
		}
		name := root.Name()
		rootDir := filepath.Join("testdata", name)
		var caseDirs []string
		if hasGoFiles(rootDir) {
			caseDirs = []string{rootDir}
		} else {
			subs, err := os.ReadDir(rootDir)
			if err != nil {
				t.Fatal(err)
			}
			for _, sub := range subs {
				if sub.IsDir() && hasGoFiles(filepath.Join(rootDir, sub.Name())) {
					caseDirs = append(caseDirs, filepath.Join(rootDir, sub.Name()))
				}
			}
		}
		for _, dir := range caseDirs {
			dir := dir
			ran++
			t.Run(strings.TrimPrefix(filepath.ToSlash(dir), "testdata/"), func(t *testing.T) {
				pkg, err := loader.LoadDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				if pkg == nil {
					t.Fatalf("no package in %s", dir)
				}
				for _, terr := range pkg.TypeErrors {
					t.Errorf("fixture does not type-check: %v", terr)
				}
				diags := Run([]*Package{pkg}, fixtureCheckers(loader, pkg))
				var lines []string
				for _, d := range diags {
					// The suppress fixture goldens everything (framework
					// "lint" diagnostics included); checker fixtures golden
					// only their own checker so cross-checker noise does not
					// couple the files.
					if name != "suppress" && d.Checker != name {
						continue
					}
					lines = append(lines, fmt.Sprintf("%s:%d:%d: %s: %s",
						filepath.Base(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Checker, d.Message))
				}
				got := strings.Join(lines, "\n")
				if got != "" {
					got += "\n"
				}
				golden := filepath.Join(dir, "expect.txt")
				if *update {
					if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				wantBytes, err := os.ReadFile(golden)
				if err != nil {
					t.Fatalf("missing golden (run with -update): %v", err)
				}
				if want := string(wantBytes); got != want {
					t.Errorf("diagnostics mismatch\n--- want\n%s--- got\n%s", want, got)
				}
			})
		}
	}
	if ran < 19 {
		t.Fatalf("only %d fixture cases ran; expected the full testdata tree", ran)
	}
}

// TestHitFixturesReport guards against a silently pass-everything
// checker: every hits fixture must produce at least one finding of its
// own checker, and every clean fixture none.
func TestHitFixturesReport(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	names := []string{
		"maprange", "globalrand", "wallclock", "looprace", "floatsum",
		"sharedwrite", "reduceorder", "taint", "staleignore",
	}
	for _, name := range names {
		for _, kind := range []string{"hits", "clean"} {
			dir := filepath.Join("testdata", name, kind)
			pkg, err := loader.LoadDir(dir)
			if err != nil {
				t.Fatalf("%s: %v", dir, err)
			}
			// Run the full suite so directives naming sibling checkers
			// resolve, but count only this checker's findings.
			count := 0
			for _, d := range Run([]*Package{pkg}, fixtureCheckers(loader, pkg)) {
				if d.Checker == name {
					count++
				}
			}
			if kind == "hits" && count == 0 {
				t.Errorf("%s: checker %s found nothing in its hits fixture", dir, name)
			}
			if kind == "clean" && count != 0 {
				t.Errorf("%s: checker %s reported %d findings in its clean fixture", dir, name, count)
			}
		}
	}
}

// TestLoaderModule pins the module discovery and pattern expansion.
func TestLoaderModule(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	if got := loader.Module(); got != "paragon" {
		t.Fatalf("Module() = %q, want %q", got, "paragon")
	}
	pkgs, err := loader.Load(".", "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("Load(./...) from internal/lint returned %d packages, want 1 (testdata must be skipped)", len(pkgs))
	}
	if pkgs[0].Path != "paragon/internal/lint" {
		t.Fatalf("package path = %q, want %q", pkgs[0].Path, "paragon/internal/lint")
	}
	if len(pkgs[0].TypeErrors) != 0 {
		t.Fatalf("internal/lint has type errors: %v", pkgs[0].TypeErrors)
	}
}

// A "./..." walk stops at nested modules, as the go tool's does: bench/
// has its own go.mod and is not part of the determinism kernel.
func TestLoadSkipsNestedModules(t *testing.T) {
	root := filepath.Join("..", "..")
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("Load(./...) from the module root returned no packages")
	}
	for _, p := range pkgs {
		if p.Path == "paragon/bench" || strings.HasPrefix(p.Path, "paragon/bench/") {
			t.Errorf("Load(./...) descended into the nested module: %s", p.Path)
		}
	}
}
