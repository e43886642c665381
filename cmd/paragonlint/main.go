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
// The wallclock kernel set is not a hand-maintained list: it is the
// module-internal import closure of the facade package at the module
// root, the stack a downstream user links (-kernel prints it). A partial
// run such as `paragonlint ./internal/paragon` computes the same set but
// checks only the named packages; the gate is ./... .
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

	// The kernel set is the facade's import closure. The module root is
	// loaded even when a pattern does not name it, so every run computes
	// the same set.
	if _, err := loader.LoadDir(loader.Root()); err != nil {
		fatal(err)
	}
	kernelSet := loader.Deps(loader.Module())
	if *kernel {
		var paths []string
		for p := range kernelSet {
			paths = append(paths, p)
		}
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "paragonlint:", err)
	os.Exit(2)
}
