package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Call graph construction (DESIGN.md §15). The graph is CHA-style
// (class-hierarchy analysis): static calls resolve to their declared
// callee, and a call through an interface method conservatively fans out
// to every concrete method in the analysis set whose receiver type
// implements the interface. Calls through plain function values (fields,
// parameters, variables of function type) are not resolved — the repo's
// kernels dispatch statically or through small interfaces, and the
// checkers that consume the graph (taint, the computed wallclock kernel
// set) prefer a sound-on-what-it-sees graph over a points-to analysis.
//
// Everything about the graph is deterministic: nodes are held in
// load order (packages sorted by import path, files by name, declarations
// by position), adjacency lists are sorted by call-site position, and
// reachability walks visit neighbors in that order — the linter lints
// itself, so its own output must be reproducible.

// CallGraph is the CHA call graph of one analysis set.
type CallGraph struct {
	nodes  []*CallNode
	byFunc map[*types.Func]*CallNode
}

// CallNode is one declared function or method of the analysis set.
type CallNode struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	// Out holds this function's resolved call edges, sorted by call-site
	// position then callee name.
	Out []*CallEdge
}

// CallEdge is one resolved caller→callee pair; Pos is the earliest call
// site realizing it.
type CallEdge struct {
	Caller *CallNode
	Callee *CallNode
	Pos    token.Pos
	// Dynamic marks edges added by CHA interface expansion rather than a
	// direct static call.
	Dynamic bool
}

// BuildCallGraph constructs the call graph over pkgs. Packages are
// analyzed in sorted import-path order; pkgs missing type information
// contribute no nodes.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	sorted := make([]*Package, len(pkgs))
	copy(sorted, pkgs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Path < sorted[j].Path })

	g := &CallGraph{byFunc: make(map[*types.Func]*CallNode)}
	for _, pkg := range sorted {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &CallNode{Fn: fn, Decl: fd, Pkg: pkg}
				g.nodes = append(g.nodes, n)
				g.byFunc[fn] = n
			}
		}
	}

	concrete := concreteMethods(sorted)
	for _, n := range g.nodes {
		g.addEdges(n, concrete)
	}
	return g
}

// methodImpl pairs a concrete named type with one of its methods, for
// CHA interface-call expansion.
type methodImpl struct {
	recv *types.Named
	fn   *types.Func
}

// concreteMethods collects every method of every named non-interface
// type declared in the analysis set, in deterministic order.
func concreteMethods(pkgs []*Package) []methodImpl {
	var out []methodImpl
	for _, pkg := range pkgs {
		if pkg.Types == nil {
			continue
		}
		scope := pkg.Types.Scope()
		names := scope.Names() // already sorted
		for _, name := range names {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if ok && !tn.IsAlias() {
				if named, ok := tn.Type().(*types.Named); ok {
					if _, isIface := named.Underlying().(*types.Interface); !isIface {
						for i := 0; i < named.NumMethods(); i++ {
							out = append(out, methodImpl{recv: named, fn: named.Method(i)})
						}
					}
				}
			}
		}
	}
	return out
}

// addEdges resolves every call expression in n's body.
func (g *CallGraph) addEdges(n *CallNode, concrete []methodImpl) {
	seen := map[*CallNode]bool{}
	add := func(callee *CallNode, pos token.Pos, dyn bool) {
		if callee == nil || seen[callee] {
			return
		}
		seen[callee] = true
		n.Out = append(n.Out, &CallEdge{Caller: n, Callee: callee, Pos: pos, Dynamic: dyn})
	}
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			if fn, ok := n.Pkg.Info.Uses[fun].(*types.Func); ok {
				add(g.byFunc[fn], fun.Pos(), false)
			}
		case *ast.SelectorExpr:
			fn, ok := n.Pkg.Info.Uses[fun.Sel].(*types.Func)
			if !ok {
				return true
			}
			if node := g.byFunc[fn]; node != nil {
				add(node, fun.Sel.Pos(), false)
				return true
			}
			// Unresolved method: an interface call. CHA: fan out to every
			// concrete method implementing the interface.
			sig, ok := fn.Type().(*types.Signature)
			if !ok || sig.Recv() == nil {
				return true
			}
			iface, ok := sig.Recv().Type().Underlying().(*types.Interface)
			if !ok {
				return true
			}
			for _, m := range concrete {
				if m.fn.Name() != fn.Name() {
					continue
				}
				if types.Implements(m.recv, iface) || types.Implements(types.NewPointer(m.recv), iface) {
					add(g.byFunc[m.fn], fun.Sel.Pos(), true)
				}
			}
		}
		return true
	})
	sort.Slice(n.Out, func(i, j int) bool {
		a, b := n.Out[i], n.Out[j]
		if a.Pos != b.Pos {
			return a.Pos < b.Pos
		}
		return a.Callee.Fn.FullName() < b.Callee.Fn.FullName()
	})
}

// ExportedRoots returns the exported functions and methods declared in
// the named packages (by import path), in deterministic order — the
// entry surface reachability starts from. With no paths, every loaded
// package contributes roots (fixture mode).
func (g *CallGraph) ExportedRoots(paths ...string) []*CallNode {
	want := map[string]bool{}
	for _, p := range paths {
		want[p] = true
	}
	var out []*CallNode
	for _, n := range g.nodes {
		if len(want) > 0 && !want[n.Pkg.Path] {
			continue
		}
		if n.Fn.Exported() {
			out = append(out, n)
		}
	}
	return out
}

// Reach computes the forward closure of roots. The returned parent map
// holds, for every reached node other than a root, the BFS tree edge it
// was first discovered through — the shortest call path back to a root.
func (g *CallGraph) Reach(roots []*CallNode) (reached map[*CallNode]bool, parent map[*CallNode]*CallEdge) {
	reached = make(map[*CallNode]bool)
	parent = make(map[*CallNode]*CallEdge)
	queue := make([]*CallNode, 0, len(roots))
	for _, r := range roots {
		if r != nil && !reached[r] {
			reached[r] = true
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.Out {
			if reached[e.Callee] {
				continue
			}
			reached[e.Callee] = true
			parent[e.Callee] = e
			queue = append(queue, e.Callee)
		}
	}
	return reached, parent
}

// ReachablePackages returns the set of import paths owning at least one
// function reachable from roots — the computed kernel set that replaced
// cmd/paragonlint's hand-maintained package list.
func (g *CallGraph) ReachablePackages(roots []*CallNode) map[string]bool {
	reached, _ := g.Reach(roots)
	out := map[string]bool{}
	for _, n := range g.nodes {
		if reached[n] {
			out[n.Pkg.Path] = true
		}
	}
	return out
}

// PathTo renders the BFS call path from a root to n, e.g.
// "paragon.Refine → paragon.refineParallel → (*scheduler).runRound".
func PathTo(parent map[*CallNode]*CallEdge, n *CallNode) string {
	var names []string
	for cur := n; cur != nil; {
		names = append(names, funcDisplayName(cur.Fn))
		e := parent[cur]
		if e == nil {
			break
		}
		cur = e.Caller
	}
	// Reverse into root-first order.
	for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
		names[i], names[j] = names[j], names[i]
	}
	return strings.Join(names, " → ")
}

// funcDisplayName renders a compact qualified name: pkgname.Func for
// package functions, (*T).Method / T.Method for methods.
func funcDisplayName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		ptr := ""
		if p, isPtr := t.(*types.Pointer); isPtr {
			t = p.Elem()
			ptr = "*"
		}
		name := "?"
		if named, isNamed := t.(*types.Named); isNamed {
			name = named.Obj().Name()
		}
		if ptr != "" {
			return "(*" + name + ")." + fn.Name()
		}
		return name + "." + fn.Name()
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}
