// Package lint is a small stdlib-only static-analysis framework plus the
// repo-specific checkers behind cmd/paragonlint. PARAGON's correctness
// story rests on bit-identical seeded runs (the golden FNV-hash tests pin
// refinement output), and the bug classes that silently break that
// contract — map-iteration-order leaks, ambient randomness, wall-clock
// reads in kernels, racy fan-out, reorder-sensitive float accumulation —
// are exactly the ones no stock Go tool catches. The checkers here encode
// the determinism contract of DESIGN.md as machine-checked rules.
//
// The framework is deliberately minimal: a package loader built on
// go/parser + go/types (load.go), positioned diagnostics, line-scoped
// `//lint:ignore <checker> <reason>` suppressions (ignore.go), and a
// runner that applies a checker suite to loaded packages. It has no
// dependency outside the standard library.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Package is one type-checked package as seen by checkers.
type Package struct {
	// Path is the import path (or a synthetic path for fixture packages).
	Path string
	// Dir is the directory the files were loaded from.
	Dir string
	// Fset positions all files of this load.
	Fset *token.FileSet
	// Files are the parsed non-test files, sorted by filename.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info carries the use/def/type maps checkers resolve through.
	Info *types.Info
	// TypeErrors collects soft type-check errors (the checkers still run;
	// resolution may be partial).
	TypeErrors []error
}

// Diagnostic is one checker finding at a source position.
type Diagnostic struct {
	Pos     token.Position
	Checker string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Checker, d.Message)
}

// Checker is one analysis run over a single package.
type Checker interface {
	// Name is the short identifier used in output and in
	// //lint:ignore directives.
	Name() string
	// Check reports diagnostics for pkg. Suppression filtering happens in
	// the runner; checkers report every finding.
	Check(pkg *Package) []Diagnostic
}

// Run applies every checker to every package, drops suppressed findings,
// appends framework diagnostics for malformed //lint:ignore directives
// and staleignore diagnostics for directives that silenced nothing, and
// returns the result sorted by position.
func Run(pkgs []*Package, checkers []Checker) []Diagnostic {
	known := map[string]bool{"staleignore": true}
	for _, c := range checkers {
		known[c.Name()] = true
	}
	var out []Diagnostic
	for _, pkg := range pkgs {
		ig := collectIgnores(pkg, known)
		out = append(out, ig.malformed...)
		for _, c := range checkers {
			for _, d := range c.Check(pkg) {
				if ig.suppresses(c.Name(), d.Pos) {
					continue
				}
				out = append(out, d)
			}
		}
		// The staleness sweep runs last: only after every checker has
		// consulted the suppression state is "never used" meaningful.
		for _, d := range ig.stale() {
			if ig.suppresses("staleignore", d.Pos) {
				continue
			}
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Checker < b.Checker
	})
	return out
}

// diag is the checkers' shared constructor.
func diag(pkg *Package, pos token.Pos, checker, format string, args ...any) Diagnostic {
	return Diagnostic{
		Pos:     pkg.Fset.Position(pos),
		Checker: checker,
		Message: fmt.Sprintf(format, args...),
	}
}
