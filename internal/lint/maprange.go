package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// MapRange flags `range` statements over maps whose loop body lets the
// (deliberately randomized) iteration order leak into program state —
// the bug class that silently breaks PARAGON's seeded-run reproducibility
// (gen.BarabasiAlbert shipped with exactly this defect before PR 1).
//
// A map range is accepted only when the body is provably
// order-insensitive, meaning every statement is one of:
//
//   - writes to map entries or slice/array elements indexed by the loop
//     variables (each iteration touches its own key's state);
//   - delete/clear of map entries;
//   - commutative integer accumulation (+=, -=, *=, |=, &=, ^=, ++, --);
//   - declarations of and assignments to loop-body locals;
//   - append to a slice that a later statement of the enclosing block
//     sorts (the collect-then-sort idiom);
//   - mutex Lock/Unlock around the above;
//   - control flow (if/switch/nested loops/continue) composed of the same.
//
// Everything else — early return/break, min/max selection into outer
// variables, float accumulation, calls with unknown effects — is
// order-sensitive and reported. Loops that genuinely do not care (e.g.
// error paths that fire only on invariant violations) document that with
// a //lint:ignore maprange <reason> directive.
type MapRange struct{}

func (MapRange) Name() string { return "maprange" }

func (c MapRange) Check(pkg *Package) []Diagnostic {
	var out []Diagnostic
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			fn, ok := n.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				return true
			}
			out = append(out, c.checkBlock(pkg, fn.Body.List)...)
			return false
		})
	}
	return out
}

// checkBlock walks a statement list looking for map ranges; the slice
// gives each loop access to its following siblings (for the
// collect-then-sort idiom).
func (c MapRange) checkBlock(pkg *Package, stmts []ast.Stmt) []Diagnostic {
	var out []Diagnostic
	for i, s := range stmts {
		out = append(out, c.checkStmt(pkg, s, stmts[i+1:])...)
	}
	return out
}

// checkStmt recurses into nested statement structure, keeping track of
// the statements that follow each block position.
func (c MapRange) checkStmt(pkg *Package, s ast.Stmt, rest []ast.Stmt) []Diagnostic {
	var out []Diagnostic
	switch s := s.(type) {
	case *ast.RangeStmt:
		if isMapType(pkg, s.X) {
			if d, bad := c.analyzeLoop(pkg, s, rest); bad {
				out = append(out, d)
			}
			// Nested map ranges inside this loop are judged as part of
			// analyzeLoop; don't double-report them.
			return out
		}
		out = append(out, c.checkBlock(pkg, s.Body.List)...)
	case *ast.ForStmt:
		out = append(out, c.checkBlock(pkg, s.Body.List)...)
	case *ast.BlockStmt:
		out = append(out, c.checkBlock(pkg, s.List)...)
	case *ast.IfStmt:
		out = append(out, c.checkBlock(pkg, s.Body.List)...)
		if s.Else != nil {
			out = append(out, c.checkStmt(pkg, s.Else, nil)...)
		}
	case *ast.SwitchStmt:
		for _, cc := range s.Body.List {
			if cl, ok := cc.(*ast.CaseClause); ok {
				out = append(out, c.checkBlock(pkg, cl.Body)...)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, cc := range s.Body.List {
			if cl, ok := cc.(*ast.CaseClause); ok {
				out = append(out, c.checkBlock(pkg, cl.Body)...)
			}
		}
	case *ast.SelectStmt:
		for _, cc := range s.Body.List {
			if cl, ok := cc.(*ast.CommClause); ok {
				out = append(out, c.checkBlock(pkg, cl.Body)...)
			}
		}
	case *ast.LabeledStmt:
		out = append(out, c.checkStmt(pkg, s.Stmt, rest)...)
	case *ast.GoStmt:
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
			out = append(out, c.checkBlock(pkg, fl.Body.List)...)
		}
	case *ast.DeferStmt:
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
			out = append(out, c.checkBlock(pkg, fl.Body.List)...)
		}
	}
	return out
}

// analyzeLoop decides one map-range loop. It returns a diagnostic at the
// loop position describing the first order-sensitive statement found.
func (c MapRange) analyzeLoop(pkg *Package, loop *ast.RangeStmt, rest []ast.Stmt) (Diagnostic, bool) {
	a := &loopAnalysis{
		pkg:     pkg,
		body:    loop.Body,
		tainted: map[types.Object]bool{},
	}
	for _, e := range []ast.Expr{loop.Key, loop.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := objectOf(pkg, id); obj != nil {
				a.tainted[obj] = true
			}
		}
	}
	a.collectSortedAfter(loop, rest)
	// Two passes so taint introduced late in the body reaches earlier
	// index expressions on the revisit.
	a.propagateTaint(loop.Body)
	a.propagateTaint(loop.Body)
	if why, pos := a.checkStmts(loop.Body.List); why != "" {
		line := pkg.Fset.Position(pos).Line
		return diag(pkg, loop.For, "maprange",
			"map iteration order leaks out of this loop: %s (line %d); sort the keys first, restructure, or //lint:ignore maprange <reason>", why, line), true
	}
	return Diagnostic{}, false
}

type loopAnalysis struct {
	pkg     *Package
	body    *ast.BlockStmt
	tainted map[types.Object]bool
	// sortedAfter holds slice variables appended to in the loop that a
	// later sibling statement sorts.
	sortedAfter map[types.Object]bool
}

// collectSortedAfter finds `x = append(x, ...)` targets in the loop and
// checks whether any following sibling statement passes x to a sort. A
// call whose name says "sort" counts; one that says "sorted" only tests
// the order (slices.IsSorted, sort.IntsAreSorted) and does not.
func (a *loopAnalysis) collectSortedAfter(loop *ast.RangeStmt, rest []ast.Stmt) {
	a.sortedAfter = map[types.Object]bool{}
	var targets []types.Object
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || i >= len(as.Rhs) {
				continue
			}
			if call, ok := as.Rhs[i].(*ast.CallExpr); ok && isBuiltin(a.pkg, call.Fun, "append") {
				if obj := objectOf(a.pkg, id); obj != nil {
					targets = append(targets, obj)
				}
			}
		}
		return true
	})
	if len(targets) == 0 {
		return
	}
	for _, s := range rest {
		ast.Inspect(s, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name := ""
			switch fun := call.Fun.(type) {
			case *ast.Ident:
				name = fun.Name
			case *ast.SelectorExpr:
				name = fun.Sel.Name
				if x, ok := fun.X.(*ast.Ident); ok {
					name = x.Name + "." + name
				}
			}
			name = strings.ToLower(name)
			if !strings.Contains(name, "sort") || strings.Contains(name, "sorted") {
				return true
			}
			for _, t := range targets {
				if exprsMention(a.pkg, call.Args, t) {
					a.sortedAfter[t] = true
				}
			}
			return true
		})
	}
}

// propagateTaint marks loop-body locals derived from the loop variables.
func (a *loopAnalysis) propagateTaint(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				var rhs ast.Expr
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				} else if len(n.Rhs) == 1 {
					rhs = n.Rhs[0]
				}
				if rhs != nil && a.mentionsTaint(rhs) {
					if obj := objectOf(a.pkg, id); obj != nil && a.isBodyLocal(obj) {
						a.tainted[obj] = true
					}
				}
			}
		case *ast.RangeStmt:
			// Ranging over a tainted container taints the inner loop
			// variables: they are per-outer-key state.
			if a.mentionsTaint(n.X) {
				for _, e := range []ast.Expr{n.Key, n.Value} {
					if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
						if obj := objectOf(a.pkg, id); obj != nil {
							a.tainted[obj] = true
						}
					}
				}
			}
		}
		return true
	})
}

func (a *loopAnalysis) isBodyLocal(obj types.Object) bool {
	return obj.Pos() >= a.body.Pos() && obj.Pos() <= a.body.End()
}

func (a *loopAnalysis) mentionsTaint(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := objectOf(a.pkg, id); obj != nil && a.tainted[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}

// checkStmts validates a statement list; a non-empty reason means the
// loop is order-sensitive.
func (a *loopAnalysis) checkStmts(stmts []ast.Stmt) (string, token.Pos) {
	for _, s := range stmts {
		if why, pos := a.checkStmt(s); why != "" {
			return why, pos
		}
	}
	return "", token.NoPos
}

func (a *loopAnalysis) checkStmt(s ast.Stmt) (string, token.Pos) {
	switch s := s.(type) {
	case nil, *ast.EmptyStmt:
		return "", token.NoPos
	case *ast.BranchStmt:
		if s.Tok == token.CONTINUE {
			return "", token.NoPos
		}
		return fmt.Sprintf("%s exits after an order-dependent prefix of the keys", s.Tok), s.Pos()
	case *ast.ReturnStmt:
		return "return exits after an order-dependent prefix of the keys", s.Pos()
	case *ast.AssignStmt:
		return a.checkAssign(s)
	case *ast.IncDecStmt:
		if isIntegerExpr(a.pkg, s.X) {
			return "", token.NoPos
		}
		return "non-integer increment is reordering-sensitive", s.Pos()
	case *ast.DeclStmt:
		return "", token.NoPos // var/const decls introduce body-locals
	case *ast.ExprStmt:
		return a.checkCallStmt(s)
	case *ast.BlockStmt:
		return a.checkStmts(s.List)
	case *ast.IfStmt:
		if s.Init != nil {
			if why, pos := a.checkStmt(s.Init); why != "" {
				return why, pos
			}
		}
		if why, pos := a.checkStmts(s.Body.List); why != "" {
			return why, pos
		}
		if s.Else != nil {
			return a.checkStmt(s.Else)
		}
		return "", token.NoPos
	case *ast.SwitchStmt:
		if s.Init != nil {
			if why, pos := a.checkStmt(s.Init); why != "" {
				return why, pos
			}
		}
		for _, cc := range s.Body.List {
			if cl, ok := cc.(*ast.CaseClause); ok {
				if why, pos := a.checkStmts(cl.Body); why != "" {
					return why, pos
				}
			}
		}
		return "", token.NoPos
	case *ast.ForStmt:
		if s.Init != nil {
			if why, pos := a.checkStmt(s.Init); why != "" {
				return why, pos
			}
		}
		if s.Post != nil {
			if why, pos := a.checkStmt(s.Post); why != "" {
				return why, pos
			}
		}
		return a.checkStmts(s.Body.List)
	case *ast.RangeStmt:
		return a.checkStmts(s.Body.List)
	case *ast.LabeledStmt:
		return a.checkStmt(s.Stmt)
	default:
		// go/defer/send/select/type-switch inside a map range: launch and
		// communication order would follow map order.
		return fmt.Sprintf("%T is order-sensitive inside a map range", s), s.Pos()
	}
}

func (a *loopAnalysis) checkAssign(s *ast.AssignStmt) (string, token.Pos) {
	switch s.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN,
		token.AND_ASSIGN, token.OR_ASSIGN, token.XOR_ASSIGN:
		if isIntegerExpr(a.pkg, s.Lhs[0]) {
			return "", token.NoPos
		}
		if isFloatExpr(a.pkg, s.Lhs[0]) {
			return fmt.Sprintf("floating-point accumulation into %s depends on summation order", exprString(s.Lhs[0])), s.Pos()
		}
		return fmt.Sprintf("%s accumulation into %s is not commutative", s.Tok, exprString(s.Lhs[0])), s.Pos()
	case token.SHL_ASSIGN, token.SHR_ASSIGN, token.QUO_ASSIGN, token.REM_ASSIGN:
		return fmt.Sprintf("%s accumulation is not commutative", s.Tok), s.Pos()
	}
	// Plain = or :=.
	for i, lhs := range s.Lhs {
		switch lhs := lhs.(type) {
		case *ast.Ident:
			if lhs.Name == "_" {
				continue
			}
			obj := objectOf(a.pkg, lhs)
			if obj != nil && a.isBodyLocal(obj) {
				continue
			}
			// Collect-then-sort: x = append(x, ...) with a later sort.
			if i < len(s.Rhs) || len(s.Rhs) == 1 {
				rhs := s.Rhs[min(i, len(s.Rhs)-1)]
				if call, ok := rhs.(*ast.CallExpr); ok && isBuiltin(a.pkg, call.Fun, "append") {
					if obj != nil && a.sortedAfter[obj] {
						continue
					}
					return fmt.Sprintf("append to %s happens in map-iteration order and is never sorted afterwards", lhs.Name), s.Pos()
				}
			}
			return fmt.Sprintf("assignment to %s keeps whichever key the runtime visits last (or first)", lhs.Name), s.Pos()
		case *ast.IndexExpr:
			if a.mentionsTaint(lhs.Index) {
				continue // per-key write
			}
			return fmt.Sprintf("write to %s is not indexed by the loop variables", exprString(lhs)), s.Pos()
		case *ast.SelectorExpr:
			if a.mentionsTaint(lhs.X) {
				continue // field of per-key state
			}
			return fmt.Sprintf("write to %s escapes the iteration", exprString(lhs)), s.Pos()
		case *ast.StarExpr:
			if a.mentionsTaint(lhs.X) {
				continue
			}
			return fmt.Sprintf("write through %s escapes the iteration", exprString(lhs)), s.Pos()
		default:
			return fmt.Sprintf("write to %s escapes the iteration", exprString(lhs)), s.Pos()
		}
	}
	return "", token.NoPos
}

func (a *loopAnalysis) checkCallStmt(s *ast.ExprStmt) (string, token.Pos) {
	call, ok := s.X.(*ast.CallExpr)
	if !ok {
		return fmt.Sprintf("%T is order-sensitive inside a map range", s.X), s.Pos()
	}
	if isBuiltin(a.pkg, call.Fun, "delete") || isBuiltin(a.pkg, call.Fun, "clear") {
		return "", token.NoPos
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		switch sel.Sel.Name {
		case "Lock", "Unlock", "RLock", "RUnlock":
			return "", token.NoPos // sync points bracket per-key work
		}
	}
	return fmt.Sprintf("call to %s has effects the checker cannot order-qualify", exprString(call.Fun)), s.Pos()
}

// ---- shared type/AST helpers ----

func objectOf(pkg *Package, id *ast.Ident) types.Object {
	if obj := pkg.Info.Defs[id]; obj != nil {
		return obj
	}
	return pkg.Info.Uses[id]
}

func typeOf(pkg *Package, e ast.Expr) types.Type {
	if tv, ok := pkg.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

func isMapType(pkg *Package, e ast.Expr) bool {
	t := typeOf(pkg, e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

func basicInfo(pkg *Package, e ast.Expr) types.BasicInfo {
	t := typeOf(pkg, e)
	if t == nil {
		return 0
	}
	if b, ok := t.Underlying().(*types.Basic); ok {
		return b.Info()
	}
	return 0
}

func isIntegerExpr(pkg *Package, e ast.Expr) bool {
	return basicInfo(pkg, e)&types.IsInteger != 0
}

func isFloatExpr(pkg *Package, e ast.Expr) bool {
	return basicInfo(pkg, e)&(types.IsFloat|types.IsComplex) != 0
}

func isBuiltin(pkg *Package, fun ast.Expr, name string) bool {
	id, ok := fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isBuiltin := objectOf(pkg, id).(*types.Builtin)
	return isBuiltin
}

func exprsMention(pkg *Package, exprs []ast.Expr, obj types.Object) bool {
	for _, e := range exprs {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && objectOf(pkg, id) == obj {
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

// exprString renders a compact source form of simple expressions for
// messages.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[" + exprString(e.Index) + "]"
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.CallExpr:
		return exprString(e.Fun) + "(...)"
	case *ast.BasicLit:
		return e.Value
	default:
		return fmt.Sprintf("%T", e)
	}
}
