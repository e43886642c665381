package main

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
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

// goSites are the places a non-test go statement may start a goroutine,
// as file and enclosing function: the seven sites of DESIGN.md §8. A new
// site is added here and to that table together.
var goSites = map[string]bool{
	"internal/paragon/engine.go WaveEngine.Open":                true,
	"internal/portfolio/portfolio.go Pool.race":                 true,
	"internal/session/epoch.go Session.launchEpoch":             true,
	"internal/graph/rows.go FromSymmetricRows":                  true,
	"internal/partition/profile.go NeighborProfile.Materialize": true,
	"internal/partition/index.go BuildIndex":                    true,
	"cmd/paragon/main.go main":                                  true,
}

// Every go statement in the module's non-test Go (testdata, the lint
// fixtures among it, is skipped) sits at a listed site, and every listed
// site still has one.
func TestGoStatementsOnlyAtListedSites(t *testing.T) {
	seen := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(moduleRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != moduleRoot && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(moduleRoot, path)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			site := filepath.ToSlash(rel) + " " + funcName(decl)
			ast.Inspect(decl, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					if !goSites[site] {
						t.Errorf("%s: go statement in %s, not a site of DESIGN.md §8", fset.Position(g.Pos()), site)
					}
					seen[site] = true
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for site := range goSites {
		if !seen[site] {
			t.Errorf("listed site %q has no go statement; drop it here and in DESIGN.md §8", site)
		}
	}
}

// funcName names a top-level declaration as Recv.Method, Func, or
// "(package scope)" for a variable's initializer.
func funcName(decl ast.Decl) string {
	fd, ok := decl.(*ast.FuncDecl)
	if !ok {
		return "(package scope)"
	}
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}
