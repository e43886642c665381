package lint

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata expect.txt golden files")

// fixtureCheckers is the full suite with permissive scope predicates:
// fixture packages are always "deterministic" and always "kernel".
var fixtureCheckers = []Checker{MapRange{}, GlobalRand{}, WallClock{}, SharedWrite{}, ReduceOrder{}}

// goldenAll names the fixture roots whose goldens hold every finding,
// not one checker's: suppress, whose lint-malformed diagnostics come
// from the framework itself, and floatsum and looprace, the cases of two
// deleted checkers, which pin what the remaining suite reports on them.
var goldenAll = map[string]bool{"suppress": true, "floatsum": true, "looprace": true}

// TestFixtures loads every fixture package under testdata and compares
// the diagnostics against the expect.txt golden next to it. Layout is
// testdata/<checker>/<case>/ (only that checker's findings are golden;
// besides hits and clean, a checker's cases re-create the bugs it
// caught in the tree, as they stood before the fix) or testdata/<name>/
// directly; a goldenAll root goldens every finding. testdata/loader
// holds the loader's own cases: no checker has that name, so their
// goldens are empty and each case checks that the package type-checks.
// Golden lines are "file.go:line:col: checker: message", so a drifting
// position fails the test. Regenerate with
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
				diags := Run([]*Package{pkg}, fixtureCheckers)
				var lines []string
				for _, d := range diags {
					// Checker fixtures golden only their own checker so
					// cross-checker noise does not couple the files.
					if !goldenAll[name] && d.Checker != name {
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
	if ran < 24 {
		t.Fatalf("only %d fixture cases ran; expected the full testdata tree", ran)
	}
}

// TestHitFixturesReport guards against a silently pass-everything
// checker: every case of a checker's fixtures — hits and the re-created
// historical bugs alike — must produce at least one finding of its own
// checker, and its clean case none.
func TestHitFixturesReport(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	names := []string{
		"maprange", "globalrand", "wallclock", "sharedwrite", "reduceorder", "staleignore",
	}
	for _, name := range names {
		cases, err := os.ReadDir(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		kinds := map[string]bool{}
		for _, c := range cases {
			kind := c.Name()
			kinds[kind] = true
			dir := filepath.Join("testdata", name, kind)
			pkg, err := loader.LoadDir(dir)
			if err != nil {
				t.Fatalf("%s: %v", dir, err)
			}
			// Run the full suite so directives naming sibling checkers
			// resolve, but count only this checker's findings.
			count := 0
			for _, d := range Run([]*Package{pkg}, fixtureCheckers) {
				if d.Checker == name {
					count++
				}
			}
			if kind != "clean" && count == 0 {
				t.Errorf("%s: checker %s found nothing in its %s fixture", dir, name, kind)
			}
			if kind == "clean" && count != 0 {
				t.Errorf("%s: checker %s reported %d findings in its clean fixture", dir, name, count)
			}
		}
		if !kinds["hits"] || !kinds["clean"] {
			t.Errorf("testdata/%s: want both a hits and a clean case, have %v", name, kinds)
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

// Deps is the module-internal import closure: the crosspkg fixture and
// the helper package it imports, without the helper's standard-library
// import; a path the loader has not loaded has an empty closure.
func TestLoaderDeps(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir("testdata/loader/crosspkg")
	if err != nil {
		t.Fatal(err)
	}
	got := loader.Deps(pkg.Path)
	want := map[string]bool{pkg.Path: true, pkg.Path + "/helpers": true}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Deps(%s) = %v, want %v", pkg.Path, got, want)
	}
	if got := loader.Deps("paragon/no/such/package"); len(got) != 0 {
		t.Fatalf("Deps of an unknown path = %v, want empty", got)
	}
}
