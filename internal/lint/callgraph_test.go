package lint

import (
	"go/types"
	"strings"
	"testing"
)

// TestCallGraphCHA pins the interface fan-out on a real package: lint's
// own Run invokes Checker.Check dynamically, and CHA must resolve that
// call to every concrete Check method declared in the package.
func TestCallGraphCHA(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	g := BuildCallGraph([]*Package{pkg})

	runFn, ok := pkg.Types.Scope().Lookup("Run").(*types.Func)
	if !ok {
		t.Fatal("lint.Run not found")
	}
	n := g.byFunc[runFn]
	if n == nil {
		t.Fatal("no call-graph node for lint.Run")
	}
	dynamic := map[string]bool{}
	for _, e := range n.Out {
		if e.Dynamic {
			dynamic[funcDisplayName(e.Callee.Fn)] = true
		}
	}
	for _, want := range []string{"MapRange.Check", "SharedWrite.Check", "ReduceOrder.Check", "(*Taint).Check"} {
		if !dynamic[want] {
			t.Errorf("CHA edge Run → %s missing; dynamic callees: %v", want, dynamic)
		}
	}
}

// TestCallGraphReach pins reachability, the computed package closure,
// and the rendered call path on the cross-package taint fixture.
func TestCallGraphReach(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir("testdata/taint/crosspkg")
	if err != nil {
		t.Fatal(err)
	}
	helpers, err := loader.LoadDir("testdata/taint/crosspkg/helpers")
	if err != nil {
		t.Fatal(err)
	}
	g := BuildCallGraph([]*Package{pkg, helpers})
	roots := g.ExportedRoots(pkg.Path)
	if len(roots) != 1 || roots[0].Fn.Name() != "Entry" {
		t.Fatalf("ExportedRoots = %v, want [Entry]", roots)
	}

	pkgs := g.ReachablePackages(roots)
	if !pkgs[pkg.Path] || !pkgs[helpers.Path] {
		t.Fatalf("ReachablePackages = %v, want both fixture packages", pkgs)
	}

	reached, parent := g.Reach(roots)
	var tick *CallNode
	for _, n := range g.nodes {
		if n.Fn.Name() == "tick" {
			tick = n
		}
	}
	if tick == nil || !reached[tick] {
		t.Fatalf("helpers.tick not reached; reached %d nodes", len(reached))
	}
	if got, want := PathTo(parent, tick), "crosspkg.Entry → helpers.Stamp → helpers.tick"; got != want {
		t.Errorf("PathTo = %q, want %q", got, want)
	}
}

// TestKernelSetComputed guards the acceptance criterion that the
// wallclock kernel set comes from reachability, not a hand list: the
// unreachable function in the taint clean fixture contributes no
// package membership on its own.
func TestKernelSetComputed(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir("testdata/taint/clean")
	if err != nil {
		t.Fatal(err)
	}
	g := BuildCallGraph([]*Package{pkg})
	// Roots restricted to a package with no exported functions would
	// yield an empty closure; the fixture's Entry/Audited are the only
	// roots and reach only in-package code.
	pkgs := g.ReachablePackages(g.ExportedRoots(pkg.Path))
	if len(pkgs) != 1 || !pkgs[pkg.Path] {
		t.Fatalf("ReachablePackages = %v, want exactly the fixture package", pkgs)
	}
	if got := g.ReachablePackages(g.ExportedRoots("no/such/package")); len(got) != 0 {
		t.Fatalf("closure of empty root set = %v, want empty", got)
	}
	if !strings.HasPrefix(pkg.Path, "paragon/") {
		t.Fatalf("fixture path %q not module-qualified", pkg.Path)
	}
}
