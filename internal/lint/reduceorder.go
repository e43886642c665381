package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ReduceOrder flags float reductions that fold results in goroutine
// completion order. Floating-point addition is not associative, so a
// reduction over values produced by concurrent workers is bit-identical
// across runs only when the fold happens in a fixed order — the repo's
// convention is rank order: workers deposit partials into slots indexed
// by a static worker or shard id and the coordinator folds the slice
// front to back. The refinement objective and the stream placers are
// integer (DESIGN.md §10). The float sums that remain are the topology
// cost model and the bsp execution model, which runs a superstep's ranks
// in order and folds their float outcomes in rank order, both on one
// goroutine. The checker keeps any new fold out of completion order.
//
// The checker reports two shapes that violate the convention:
//
//   - a float accumulation whose right-hand side contains a channel
//     receive (sum += <-results): the fold order is whichever worker
//     finishes first;
//   - a float accumulation inside a `for range ch` body whose target is
//     declared outside the loop: same completion-order fold, spelled as
//     a collector loop.
//
// Integer folds of the same shape are fine (associative + commutative),
// as is receiving all partials into an indexed slice and folding it
// afterwards — that is the fix this checker points at.
//
// ReduceOrder covers the collection side, where the partials come home;
// float accumulation inside map-range loops is maprange's, and a worker
// accumulating into captured state is sharedwrite's.
type ReduceOrder struct{}

func (ReduceOrder) Name() string { return "reduceorder" }

func (c ReduceOrder) Check(pkg *Package) []Diagnostic {
	var out []Diagnostic
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				out = append(out, c.checkAssign(pkg, n)...)
			case *ast.RangeStmt:
				out = append(out, c.checkRangeChan(pkg, n)...)
			}
			return true
		})
	}
	return out
}

// checkAssign flags float accumulations whose RHS performs a channel
// receive: sum += <-partials.
func (c ReduceOrder) checkAssign(pkg *Package, n *ast.AssignStmt) []Diagnostic {
	if !isAccumAssign(n) || len(n.Lhs) != 1 {
		return nil
	}
	if !isFloatExpr(pkg, n.Lhs[0]) {
		return nil
	}
	if !containsReceive(n.Rhs[0]) {
		return nil
	}
	return []Diagnostic{diag(pkg, n.Pos(), "reduceorder",
		"float accumulation into %s folds channel receives in completion order; deposit partials into a shard-indexed slice and fold it in order",
		exprString(n.Lhs[0]))}
}

// checkRangeChan flags float accumulations inside `for range ch` bodies
// targeting variables declared outside the loop.
func (c ReduceOrder) checkRangeChan(pkg *Package, n *ast.RangeStmt) []Diagnostic {
	t := typeOf(pkg, n.X)
	if t == nil {
		return nil
	}
	if _, ok := t.Underlying().(*types.Chan); !ok {
		return nil
	}
	var out []Diagnostic
	ast.Inspect(n.Body, func(node ast.Node) bool {
		as, ok := node.(*ast.AssignStmt)
		if !ok || !isAccumAssign(as) || len(as.Lhs) != 1 {
			return true
		}
		lhs := as.Lhs[0]
		if !isFloatExpr(pkg, lhs) {
			return true
		}
		if declaredWithin(pkg, lhs, n.Body) {
			return true
		}
		out = append(out, diag(pkg, as.Pos(), "reduceorder",
			"float accumulation into %s inside a channel-range loop folds partials in completion order; deposit into a shard-indexed slice and fold it in order",
			exprString(lhs)))
		return true
	})
	return out
}

// isAccumAssign reports x += e, x -= e, and x = x ± e.
func isAccumAssign(n *ast.AssignStmt) bool {
	switch n.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN:
		return true
	case token.ASSIGN:
		if len(n.Lhs) != 1 || len(n.Rhs) != 1 {
			return false
		}
		be, ok := n.Rhs[0].(*ast.BinaryExpr)
		if !ok || (be.Op != token.ADD && be.Op != token.SUB) {
			return false
		}
		return exprString(be.X) == exprString(n.Lhs[0])
	}
	return false
}

// containsReceive reports whether e contains a channel receive.
func containsReceive(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if u, ok := n.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			found = true
		}
		return !found
	})
	return found
}

// declaredWithin reports whether the base identifier of lhs is declared
// inside the given node's span.
func declaredWithin(pkg *Package, lhs ast.Expr, within ast.Node) bool {
	base := lhs
	for {
		switch x := base.(type) {
		case *ast.IndexExpr:
			base = x.X
		case *ast.SelectorExpr:
			base = x.X
		case *ast.StarExpr:
			base = x.X
		case *ast.ParenExpr:
			base = x.X
		default:
			id, ok := base.(*ast.Ident)
			if !ok {
				return false
			}
			obj := objectOf(pkg, id)
			if obj == nil {
				return false
			}
			return obj.Pos() >= within.Pos() && obj.Pos() <= within.End()
		}
	}
}
