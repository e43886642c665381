package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SharedWrite enforces the parallel-commit contract of DESIGN.md §12:
// state written from inside a goroutine must be a per-worker arena slot
// — a slice/map element whose index is owned by exactly one task — or a
// commutative guarded counter; everything else must be committed by the
// coordinator at a barrier. A captured variable assigned from a worker
// is at best a race and at worst (mutex-guarded) a completion-order leak
// that breaks bit-identical replay across worker counts.
//
// The checker analyzes every `go` statement's body: a function literal,
// or the declaration of a directly spawned same-package function or
// method (the worker-pool pattern, `go sc.worker(i)`), following calls
// one level into same-package helpers with parameter roles mapped.
// Objects are classified as
//
//   - task ids: the spawn body's parameters (a fan-out hands each
//     goroutine its own iteration's values as arguments), values
//     received from or ranged over a channel (work-queue items are
//     delivered to exactly one worker), and for-loop variables seeded
//     from task ids (the static modulo-stride idiom);
//   - arena aliases: locals bound to a shared container indexed by a
//     task id (st := stores[r]) — the worker owns the slot, so writes
//     anywhere under it are private;
//   - shared: captured variables, package-level variables, receivers and
//     parameters fed from captured state.
//
// A write is accepted when its target is a local or arena alias, when
// some index on its access path is a task id (outcomes[r] = ...), or
// when it is an integer increment bracketed by a mutex Lock/Unlock pair
// (commutative, so completion order cannot leak). Everything else is
// reported. Disjointness the checker cannot see — partition-disjoint
// wave tasks, rank-owned vertex ranges — is documented site by site with
// //lint:ignore sharedwrite <reason>.
//
// Even an accepted slot write needs a barrier before anyone reads the
// slots: a goroutine literal that writes an indexed element of captured
// state is reported when its enclosing function has no synchronization
// point at all (WaitGroup, mutex, or channel).
type SharedWrite struct{}

func (SharedWrite) Name() string { return "sharedwrite" }

func (c SharedWrite) Check(pkg *Package) []Diagnostic {
	var out []Diagnostic
	// A helper followed from several spawn sites can report the same
	// write once per caller; identical findings are deduplicated.
	seen := map[string]bool{}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, _ := decl.(*ast.FuncDecl)
			ast.Inspect(decl, func(n ast.Node) bool {
				gs, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				diags := c.checkSpawn(pkg, gs)
				if fd != nil && !bodyHasSyncPoint(pkg, fd.Body) {
					diags = append(diags, unsyncedSlotWrite(pkg, gs)...)
				}
				for _, d := range diags {
					key := d.Pos.String() + "\x00" + d.Message
					if seen[key] {
						continue
					}
					seen[key] = true
					out = append(out, d)
				}
				return true
			})
		}
	}
	return out
}

// unsyncedSlotWrite reports a goroutine literal's first indexed write
// whose base is declared outside the literal ("results[i] = ..."); the
// caller has established that nothing in the enclosing function waits
// for it.
func unsyncedSlotWrite(pkg *Package, gs *ast.GoStmt) []Diagnostic {
	fl, ok := gs.Call.Fun.(*ast.FuncLit)
	if !ok {
		return nil
	}
	target := ""
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok {
			for _, lhs := range as.Lhs {
				ix, ok := lhs.(*ast.IndexExpr)
				if !ok {
					continue
				}
				base, ok := ix.X.(*ast.Ident)
				if !ok {
					continue
				}
				if obj := pkg.Info.Uses[base]; obj != nil && (obj.Pos() < fl.Pos() || obj.Pos() > fl.End()) {
					target = base.Name
				}
			}
		}
		return target == ""
	})
	if target == "" {
		return nil
	}
	return []Diagnostic{diag(pkg, fl.Pos(), "sharedwrite",
		"goroutine writes shared %s but the enclosing function has no synchronization point (WaitGroup, mutex, or channel)", target)}
}

// bodyHasSyncPoint scans for any evidence of synchronization in the
// function: WaitGroup/mutex method calls, channel sends/receives, or
// close().
func bodyHasSyncPoint(pkg *Package, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			found = true
		case *ast.UnaryExpr:
			found = n.Op == token.ARROW
		case *ast.CallExpr:
			if isBuiltin(pkg, n.Fun, "close") {
				found = true
			}
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				switch sel.Sel.Name {
				case "Wait", "Done", "Lock", "Unlock", "RLock", "RUnlock":
					found = true
				}
			}
		case *ast.RangeStmt:
			if t := typeOf(pkg, n.X); t != nil {
				_, found = t.Underlying().(*types.Chan)
			}
		}
		return !found
	})
	return found
}

// checkSpawn analyzes one go statement.
func (c SharedWrite) checkSpawn(pkg *Package, gs *ast.GoStmt) []Diagnostic {
	switch fun := gs.Call.Fun.(type) {
	case *ast.FuncLit:
		sw := newSpawnWalker(pkg, fun.Body)
		for _, obj := range paramObjs(pkg, fun.Type) {
			sw.taskIDs[obj] = true
		}
		sw.markResults(fun.Type)
		sw.classify(fun.Body)
		sw.walk(fun.Body)
		return sw.diags
	case *ast.Ident, *ast.SelectorExpr:
		fn := calleeFunc(pkg, fun)
		if fn == nil {
			return nil
		}
		decl := declOf(pkg, fn)
		if decl == nil || decl.Body == nil {
			return nil
		}
		sw := newSpawnWalker(pkg, decl.Body)
		// Spawn arguments are the values this goroutine was handed, so
		// every parameter is a task id; the receiver is shared
		// worker-pool state.
		for _, obj := range paramObjs(pkg, decl.Type) {
			sw.taskIDs[obj] = true
		}
		if obj := recvObj(pkg, decl); obj != nil {
			sw.shared[obj] = true
		}
		sw.markResults(decl.Type)
		sw.classify(decl.Body)
		sw.walk(decl.Body)
		return sw.diags
	}
	return nil
}

// spawnWalker carries one spawn body's classification state.
type spawnWalker struct {
	pkg  *Package
	body *ast.BlockStmt
	// taskIDs may index shared containers (per-task slot ownership).
	taskIDs map[types.Object]bool
	// arenas are locals the worker owns outright (writes under them are
	// private).
	arenas map[types.Object]bool
	// shared are objects explicitly known shared: receivers and
	// parameters mapped from captured arguments.
	shared map[types.Object]bool
	// private are objects declared in the signature but owned by the
	// body — named result parameters.
	private map[types.Object]bool
	// locks/unlocks are the positions of mutex Lock/Unlock calls, for
	// the guarded-counter rule.
	locks, unlocks []token.Pos
	depth          int
	diags          []Diagnostic
}

func newSpawnWalker(pkg *Package, body *ast.BlockStmt) *spawnWalker {
	return &spawnWalker{
		pkg:     pkg,
		body:    body,
		taskIDs: map[types.Object]bool{},
		arenas:  map[types.Object]bool{},
		shared:  map[types.Object]bool{},
		private: map[types.Object]bool{},
	}
}

// markResults registers a signature's named result parameters as
// body-owned: they are declared outside the body span but are ordinary
// locals of the call frame, not captures.
func (sw *spawnWalker) markResults(ft *ast.FuncType) {
	if ft == nil || ft.Results == nil {
		return
	}
	for _, field := range ft.Results.List {
		for _, name := range field.Names {
			if obj := sw.pkg.Info.Defs[name]; obj != nil {
				sw.private[obj] = true
			}
		}
	}
}

// isShared reports whether obj is shared state from this body's point of
// view: explicitly mapped shared, a package-level variable, or (for
// literal bodies) captured from an enclosing scope.
func (sw *spawnWalker) isShared(obj types.Object) bool {
	if obj == nil {
		return false
	}
	if sw.shared[obj] {
		return true
	}
	if sw.taskIDs[obj] || sw.arenas[obj] || sw.private[obj] {
		return false
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	if v.IsField() {
		// Field selections inherit sharedness from their base expression;
		// the field object itself (declared at the struct type) says
		// nothing about who owns this access path.
		return false
	}
	if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		return true // package-level variable
	}
	// Declared outside the body span: captured.
	return obj.Pos() < sw.body.Pos() || obj.Pos() > sw.body.End()
}

// classify runs the local-role propagation: two passes so chains resolve
// (sp := <-ch; lo := sp.lo; for ti := lo; ...).
func (sw *spawnWalker) classify(body *ast.BlockStmt) {
	for pass := 0; pass < 2; pass++ {
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				return false // nested spawns are classified on their own
			case *ast.RangeStmt:
				sw.classifyRange(n)
			case *ast.ForStmt:
				if init, ok := n.Init.(*ast.AssignStmt); ok && init.Tok == token.DEFINE {
					// for ti := lo; ...: stride loops seeded from a task id
					// keep task-id status (the modulo-assignment idiom).
					sw.classifyAssign(init, true)
				}
			case *ast.AssignStmt:
				sw.classifyAssign(n, false)
			case *ast.UnaryExpr:
				// x := <-ch handled via classifyAssign's receive case.
			}
			return true
		})
	}
}

// classifyRange assigns roles to range variables: channel ranges yield
// task ids; ranges over an arena alias yield arena values.
func (sw *spawnWalker) classifyRange(n *ast.RangeStmt) {
	overChan := false
	if t := typeOf(sw.pkg, n.X); t != nil {
		_, overChan = t.Underlying().(*types.Chan)
	}
	overArena := sw.rootIsArena(n.X)
	for _, e := range []ast.Expr{n.Key, n.Value} {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := objectOf(sw.pkg, id)
		if obj == nil {
			continue
		}
		if overChan {
			sw.taskIDs[obj] = true
		} else if overArena {
			sw.arenas[obj] = true
		}
	}
}

// classifyAssign assigns roles to defined/assigned locals.
func (sw *spawnWalker) classifyAssign(n *ast.AssignStmt, forInit bool) {
	if len(n.Lhs) != len(n.Rhs) && len(n.Rhs) != 1 {
		return
	}
	for i, lhs := range n.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := objectOf(sw.pkg, id)
		if obj == nil || sw.isShared(obj) {
			continue
		}
		rhs := n.Rhs[0]
		if len(n.Rhs) == len(n.Lhs) {
			rhs = n.Rhs[i]
		}
		switch {
		case isReceive(rhs):
			sw.taskIDs[obj] = true
		case sw.isArenaExpr(rhs):
			sw.arenas[obj] = true
		case forInit && sw.mentionsTaskID(rhs):
			sw.taskIDs[obj] = true
		case sw.mentionsTaskID(rhs) && !sw.mentionsSharedIdent(rhs):
			// Values derived purely from task ids (sp.lo, ti+1) stay
			// task ids; mixing in shared state forfeits the role.
			sw.taskIDs[obj] = true
		case sw.sharedAccessPath(rhs) && isRefType(obj.Type()):
			// A pointer/slice/map local bound to a piece of shared state
			// (sh := dir[i]) still points into shared state; writes through
			// it are shared writes. Value copies and call results stay
			// private.
			sw.shared[obj] = true
		}
	}
}

// isArenaExpr reports expressions granting slot ownership: a shared
// container indexed by a task id (stores[r]), or any access path rooted
// at an existing arena alias.
func (sw *spawnWalker) isArenaExpr(e ast.Expr) bool {
	if sw.rootIsArena(e) {
		return true
	}
	ix, ok := e.(*ast.IndexExpr)
	if !ok {
		return false
	}
	return sw.mentionsTaskID(ix.Index)
}

// rootIsArena peels selectors/indexes/derefs and reports whether the
// base identifier is an arena alias.
func (sw *spawnWalker) rootIsArena(e ast.Expr) bool {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			obj := objectOf(sw.pkg, x)
			return obj != nil && sw.arenas[obj]
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return false
		}
	}
}

// sharedAccessPath reports whether e is a pure access path — selectors,
// indexes, slices, derefs, address-of — rooted at a shared identifier.
// Unlike mentionsSharedIdent it does not fire on call results, so fresh
// values computed FROM shared state stay private.
func (sw *spawnWalker) sharedAccessPath(e ast.Expr) bool {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			obj := objectOf(sw.pkg, x)
			if v, ok := obj.(*types.Var); ok && !v.IsField() {
				return sw.isShared(obj)
			}
			return false
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return false
			}
			e = x.X
		default:
			return false
		}
	}
}

func (sw *spawnWalker) mentionsTaskID(e ast.Expr) bool {
	return sw.mentionsRole(e, sw.taskIDs)
}

func (sw *spawnWalker) mentionsSharedIdent(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj, isVar := objectOf(sw.pkg, id).(*types.Var); isVar && sw.isShared(obj) {
				found = true
			}
		}
		return !found
	})
	return found
}

func (sw *spawnWalker) mentionsRole(e ast.Expr, role map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := objectOf(sw.pkg, id); obj != nil && role[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}

func isReceive(e ast.Expr) bool {
	u, ok := e.(*ast.UnaryExpr)
	return ok && u.Op == token.ARROW
}

// walk reports violating writes in the spawn body, descending into
// nested non-go function literals (they run inside this goroutine) and
// one level into same-package callees.
func (sw *spawnWalker) walk(body *ast.BlockStmt) {
	sw.collectLockSpans(body)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			return false // a nested spawn is its own analysis unit
		case *ast.AssignStmt:
			sw.checkWrite(n)
		case *ast.IncDecStmt:
			sw.checkIncDec(n)
		case *ast.CallExpr:
			sw.checkCall(n)
		}
		return true
	})
}

func (sw *spawnWalker) collectLockSpans(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			switch sel.Sel.Name {
			case "Lock", "RLock":
				sw.locks = append(sw.locks, call.Pos())
			case "Unlock", "RUnlock":
				sw.unlocks = append(sw.unlocks, call.Pos())
			}
		}
		return true
	})
}

// guarded reports whether pos falls between some Lock and some Unlock in
// this body — the commutative-counter escape applies only there.
func (sw *spawnWalker) guarded(pos token.Pos) bool {
	before, after := false, false
	for _, l := range sw.locks {
		if l < pos {
			before = true
		}
	}
	for _, u := range sw.unlocks {
		if u > pos {
			after = true
		}
	}
	return before && after
}

func (sw *spawnWalker) checkWrite(n *ast.AssignStmt) {
	for _, lhs := range n.Lhs {
		if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
			continue
		}
		verdict := sw.judgeTarget(lhs)
		if verdict == "" {
			continue
		}
		if sw.guarded(n.Pos()) && isCommutativeTok(n.Tok) && isIntegerExpr(sw.pkg, lhs) {
			continue // guarded commutative counter
		}
		sw.diags = append(sw.diags, diag(sw.pkg, n.Pos(), "sharedwrite",
			"goroutine writes %s %s; use a per-worker arena slot indexed by a task id, or commit at the barrier",
			verdict, exprString(lhs)))
	}
}

func (sw *spawnWalker) checkIncDec(n *ast.IncDecStmt) {
	verdict := sw.judgeTarget(n.X)
	if verdict == "" {
		return
	}
	if sw.guarded(n.Pos()) && isIntegerExpr(sw.pkg, n.X) {
		return
	}
	sw.diags = append(sw.diags, diag(sw.pkg, n.Pos(), "sharedwrite",
		"goroutine writes %s %s; use a per-worker arena slot indexed by a task id, or commit at the barrier",
		verdict, exprString(n.X)))
}

// checkCall judges builtins with write effects (copy, delete) and
// follows same-package callees one level deep.
func (sw *spawnWalker) checkCall(n *ast.CallExpr) {
	if isBuiltin(sw.pkg, n.Fun, "copy") || isBuiltin(sw.pkg, n.Fun, "delete") {
		if len(n.Args) >= 1 {
			if verdict := sw.judgeTarget(n.Args[0]); verdict != "" {
				sw.diags = append(sw.diags, diag(sw.pkg, n.Pos(), "sharedwrite",
					"goroutine mutates %s %s through %s; use a per-worker arena slot or commit at the barrier",
					verdict, exprString(n.Args[0]), exprString(n.Fun)))
			}
		}
		return
	}
	if sw.depth >= 1 {
		return
	}
	fn := calleeFunc(sw.pkg, n.Fun)
	if fn == nil || fn.Pkg() == nil || sw.pkg.Types == nil || fn.Pkg() != sw.pkg.Types {
		return
	}
	decl := declOf(sw.pkg, fn)
	if decl == nil || decl.Body == nil || decl.Body == sw.body {
		return
	}
	inner := newSpawnWalker(sw.pkg, decl.Body)
	inner.depth = sw.depth + 1
	params := paramObjs(sw.pkg, decl.Type)
	for i, obj := range params {
		if i < len(n.Args) {
			switch {
			case sw.mentionsTaskID(n.Args[i]) && !sw.mentionsSharedIdent(n.Args[i]):
				inner.taskIDs[obj] = true
			case sw.rootIsArena(n.Args[i]):
				inner.arenas[obj] = true
			case sw.mentionsSharedIdent(n.Args[i]):
				inner.shared[obj] = true
			}
		}
	}
	if obj := recvObj(sw.pkg, decl); obj != nil {
		shared := true
		if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sw.rootIsArena(sel.X) {
			shared = false
			inner.arenas[obj] = true
		}
		if shared {
			inner.shared[obj] = true
		}
	}
	inner.markResults(decl.Type)
	inner.classify(decl.Body)
	inner.walk(decl.Body)
	sw.diags = append(sw.diags, inner.diags...)
}

// judgeTarget decides one write target. It returns "" when the write is
// allowed, else a short description of why the target is shared.
func (sw *spawnWalker) judgeTarget(lhs ast.Expr) string {
	// Any task-id index on the access path grants slot ownership.
	e := lhs
	peeled := false
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			if sw.mentionsTaskID(x.Index) {
				return ""
			}
			e = x.X
			peeled = true
			continue
		case *ast.SelectorExpr:
			e = x.X
			peeled = true
			continue
		case *ast.StarExpr:
			e = x.X
			peeled = true
			continue
		case *ast.ParenExpr:
			e = x.X
			continue
		case *ast.Ident:
			obj := objectOf(sw.pkg, x)
			if obj == nil || sw.arenas[obj] || sw.taskIDs[obj] || sw.private[obj] {
				return ""
			}
			v, isVar := obj.(*types.Var)
			if !isVar || v.IsField() {
				return ""
			}
			pkgLevel := v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
			captured := obj.Pos() < sw.body.Pos() || obj.Pos() > sw.body.End()
			if !peeled {
				// Rebinding a binding this frame owns — a local, parameter,
				// receiver, or alias — writes the binding's own storage and
				// is private. Only storage living outside the frame is
				// shared when written directly.
				if sw.shared[obj] {
					return ""
				}
				if pkgLevel {
					return "package-level"
				}
				if captured {
					return "captured"
				}
				return ""
			}
			if sw.shared[obj] {
				return "shared"
			}
			if pkgLevel {
				return "package-level"
			}
			if captured {
				return "captured"
			}
			return ""
		default:
			return ""
		}
	}
}

// ---- shared helpers ----

// paramObjs returns the declared objects of a function type's parameters.
func paramObjs(pkg *Package, ft *ast.FuncType) []types.Object {
	var out []types.Object
	if ft == nil || ft.Params == nil {
		return out
	}
	for _, field := range ft.Params.List {
		for _, name := range field.Names {
			if obj := pkg.Info.Defs[name]; obj != nil {
				out = append(out, obj)
			}
		}
	}
	return out
}

// recvObj returns the receiver object of a method declaration, nil for
// functions or anonymous receivers.
func recvObj(pkg *Package, decl *ast.FuncDecl) types.Object {
	if decl.Recv == nil || len(decl.Recv.List) == 0 || len(decl.Recv.List[0].Names) == 0 {
		return nil
	}
	return pkg.Info.Defs[decl.Recv.List[0].Names[0]]
}

// declOf finds the FuncDecl of fn within pkg's files.
func declOf(pkg *Package, fn *types.Func) *ast.FuncDecl {
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				if pkg.Info.Defs[fd.Name] == fn {
					return fd
				}
			}
		}
	}
	return nil
}

// isRefType reports types whose copies still alias the original backing
// store: pointers, slices, maps, channels, and interfaces.
func isRefType(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Interface:
		return true
	}
	return false
}

func isCommutativeTok(tok token.Token) bool {
	switch tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
		return true
	}
	return false
}
