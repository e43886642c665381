package lint

import (
	"go/ast"
	"go/types"
)

// WallClock flags time.Now / time.Since inside refinement-kernel
// packages. Kernels must be pure functions of (graph, partitioning,
// seed): reading the clock there either leaks nondeterminism into
// results or, more insidiously, tempts time-based tie-breaking and
// adaptive cutoffs that vary run to run. Timing belongs in the driver
// layer (cmd/*, internal/exp), which is outside the kernel set: the
// facade's module-internal import closure. A kernel-adjacent
// orchestration layer that legitimately reports wall-clock stats
// documents each site with //lint:ignore wallclock <reason>.
type WallClock struct {
	// Kernel reports whether an import path is a refinement kernel
	// package. Nil covers every package (useful for fixtures).
	Kernel func(path string) bool
}

func (WallClock) Name() string { return "wallclock" }

func (c WallClock) Check(pkg *Package) []Diagnostic {
	if c.Kernel != nil && !c.Kernel(pkg.Path) {
		return nil
	}
	var out []Diagnostic
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := pkg.Info.Uses[id].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
				return true
			}
			switch fn.Name() {
			case "Now", "Since", "Tick":
				out = append(out, diag(pkg, id.Pos(), "wallclock",
					"time.%s inside a refinement kernel; move timing to the driver layer", fn.Name()))
			}
			return true
		})
	}
	return out
}
