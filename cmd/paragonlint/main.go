// Command paragonlint runs the repo-specific static-analysis suite of
// internal/lint over the tree. It enforces the determinism contract of
// DESIGN.md: seeded runs must be bit-identical, so map-iteration order,
// ambient randomness, kernel clock reads, goroutine writes outside the
// arena/barrier commit protocol, completion-order float folds, and stale
// suppressions are machine-checked instead of hoped for.
//
// Usage:
//
//	paragonlint [-kernel] [packages]
//
// Package patterns follow the go tool's directory forms ("./...",
// "./internal/...", plain directories). With no pattern, ./... is
// assumed. Findings print as `file:line:col: checker: message`. The exit
// status is 1 when any diagnostic is reported and 2 on a usage or load
// error, so the command slots directly into scripts/ci.sh between
// `go vet` and the tests. Findings are suppressed site by site with
// `//lint:ignore <checker> <reason>`; the staleignore checker fails the
// gate when a suppression no longer matches a live diagnostic.
//
// The wallclock kernel set is not a hand-maintained list: the suite
// builds a CHA call graph over the loaded packages and computes the set
// as everything reachable from the kernel entry surface — the module
// facade, which is the stack a downstream user links (-kernel prints
// it). The taint checker walks the same graph to flag nondeterminism
// sources hiding in helpers.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"paragon/internal/lint"
)

// rootSurfaces are the kernel entry surfaces, as module-relative paths
// ("" is the facade package at the module root). Exported functions of
// these packages are the reachability roots: everything they can call is
// kernel code and must be clock-free, ambient-rand-free, and
// map-order-clean. The facade is the stack: refinement, partitioning,
// streaming, serving, trace. The experiment layer (internal/exp) is
// reached only from cmd/experiments, so it stays outside with the rest of
// the driver code, whose wall-clock use never enters the set.
var rootSurfaces = []string{""}

func main() {
	kernel := flag.Bool("kernel", false, "print the computed wallclock kernel package set and exit")
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	loader, err := lint.NewLoader(cwd)
	if err != nil {
		fatal(err)
	}
	pkgs, err := loader.Load(cwd, patterns...)
	if err != nil {
		fatal(err)
	}
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(os.Stderr, "paragonlint: type error (continuing): %v\n", terr)
		}
	}

	// Interprocedural state: the call graph spans the checked packages
	// plus every module-internal dependency the loader pulled in, and the
	// root surfaces are force-loaded so a partial run (e.g. a single
	// subdirectory) still computes the same kernel set as the full tree.
	rootPaths := loadRootSurfaces(loader)
	analysis := loader.AllLoaded()
	graph := lint.BuildCallGraph(analysis)
	roots := graph.ExportedRoots(rootPaths...)
	kernelSet := graph.ReachablePackages(roots)
	if *kernel {
		var paths []string
		for p := range kernelSet {
			paths = append(paths, p)
		}
		// ReachablePackages returns a set; print it sorted.
		sort.Strings(paths)
		for _, p := range paths {
			fmt.Println(p)
		}
		return
	}

	diags := lint.Run(pkgs, []lint.Checker{
		lint.MapRange{},
		lint.GlobalRand{},
		lint.WallClock{Kernel: func(path string) bool { return kernelSet[path] }},
		lint.SharedWrite{},
		lint.ReduceOrder{},
		lint.NewTaint(graph, roots, pkgs, analysis),
	})
	for _, d := range diags {
		pos := d.Pos
		if rel, err := filepath.Rel(cwd, pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			pos.Filename = rel
		}
		fmt.Printf("%s: %s: %s\n", pos, d.Checker, d.Message)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "paragonlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// loadRootSurfaces ensures the kernel entry surfaces are part of the
// loader's analysis set and returns their import paths. Surfaces missing
// from the module (fixture trees) are skipped.
func loadRootSurfaces(loader *lint.Loader) []string {
	var paths []string
	for _, rel := range rootSurfaces {
		if _, err := loader.LoadDir(filepath.Join(loader.Root(), filepath.FromSlash(rel))); err != nil {
			continue
		}
		if rel == "" {
			paths = append(paths, loader.Module())
		} else {
			paths = append(paths, loader.Module()+"/"+rel)
		}
	}
	return paths
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "paragonlint:", err)
	os.Exit(2)
}
