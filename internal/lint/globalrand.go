package lint

import (
	"go/ast"
	"go/types"
)

// GlobalRand flags ambient randomness: calls to math/rand (or
// math/rand/v2) package-level functions, which draw from the shared
// global source, and rand.New/rand.NewSource seeded from the wall clock.
// Every random decision in this repo must flow from an injected, seeded
// *rand.Rand so that a fixed Config.Seed reproduces runs bit-identically;
// a single rand.Intn buried in a kernel silently breaks the golden-hash
// tests on some future run. Constructors (New, NewSource, NewZipf) are
// allowed — they are how the seeded generators get built.
type GlobalRand struct{}

func (GlobalRand) Name() string { return "globalrand" }

var randConstructors = map[string]bool{"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true}

func (c GlobalRand) Check(pkg *Package) []Diagnostic {
	var out []Diagnostic
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				fn, ok := pkg.Info.Uses[n].(*types.Func)
				if !ok || !isRandPkg(fn.Pkg()) || fn.Type().(*types.Signature).Recv() != nil {
					return true
				}
				if randConstructors[fn.Name()] {
					return true
				}
				out = append(out, diag(pkg, n.Pos(), "globalrand",
					"rand.%s uses the process-global random source; draw from an injected seeded *rand.Rand instead", fn.Name()))
			case *ast.CallExpr:
				fn := calleeFunc(pkg, n.Fun)
				if fn == nil || !isRandPkg(fn.Pkg()) || !randConstructors[fn.Name()] {
					return true
				}
				if argReadsClock(pkg, n.Args) {
					out = append(out, diag(pkg, n.Pos(), "globalrand",
						"rand.%s seeded from the wall clock defeats reproducibility; plumb a Config.Seed through", fn.Name()))
				}
			}
			return true
		})
	}
	return out
}

func isRandPkg(p *types.Package) bool {
	return p != nil && (p.Path() == "math/rand" || p.Path() == "math/rand/v2")
}

func calleeFunc(pkg *Package, fun ast.Expr) *types.Func {
	switch fun := fun.(type) {
	case *ast.Ident:
		fn, _ := pkg.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pkg.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

func argReadsClock(pkg *Package, args []ast.Expr) bool {
	for _, arg := range args {
		found := false
		ast.Inspect(arg, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pkg, call.Fun)
			if fn == nil {
				return true
			}
			// A nested rand constructor (rand.New(rand.NewSource(...)))
			// is checked on its own visit; don't double-report.
			if isRandPkg(fn.Pkg()) && randConstructors[fn.Name()] {
				return false
			}
			if fn.Pkg() != nil && fn.Pkg().Path() == "time" &&
				(fn.Name() == "Now" || fn.Name() == "Since") {
				found = true
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}
