package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Taint is the interprocedural nondeterminism checker (DESIGN.md §15).
// The per-function checkers (wallclock, globalrand, maprange) judge a
// source site syntactically; Taint judges it structurally: a
// nondeterminism source — a wall-clock read, an ambient-rand draw, or a
// map-iteration-order-sensitive loop — anywhere in the call-graph
// closure of the kernel entry surface poisons every seeded run that
// reaches it, no matter which helper package it hides in. The taint
// lattice is the simplest one that works: a function is tainted iff it
// is a source or (transitively) calls one, and a finding is a source
// that is both unaudited and reachable from a kernel root.
//
// Audited escapes do not seed taint: a source site carrying a reasoned
// //lint:ignore directive for its base checker (wallclock, globalrand,
// maprange) or for taint itself is an escape the repo has already
// justified — e.g. the Stats.Elapsed stopwatches at the driver boundary
// — and propagating it would force a cascade of suppressions up the call
// chain. The staleignore sweep keeps those directives honest.
//
// Findings are positioned where they are fixable: at the source site
// when the source's package is part of the checked set, otherwise at the
// last call site inside a checked package on the path to it (the
// frontier — used by fixtures that import helper packages). Every
// message carries the shortest root→source call path, so the diagnostic
// explains how nondeterminism enters the kernel, not just where it
// lives.
type Taint struct {
	graph *CallGraph
	diags map[string][]Diagnostic // keyed by package path
}

func (*Taint) Name() string { return "taint" }

// taintSource is one direct nondeterminism site inside a function body.
type taintSource struct {
	node *CallNode
	pos  token.Pos
	base string // the syntactic checker owning this source kind
	desc string
}

// NewTaint builds the analysis. graph and analysisPkgs span the whole
// analysis set (checked packages plus their loaded module-internal
// imports); checkPkgs are the packages the runner will actually check —
// diagnostics are only attributed to those. roots is the kernel entry
// surface (see CallGraph.ExportedRoots).
func NewTaint(graph *CallGraph, roots []*CallNode, checkPkgs, analysisPkgs []*Package) *Taint {
	t := &Taint{graph: graph, diags: map[string][]Diagnostic{}}
	if graph == nil {
		return t
	}
	checked := map[string]bool{}
	for _, p := range checkPkgs {
		checked[p.Path] = true
	}

	// Suppression state of the whole analysis set: a source under a
	// reasoned directive for its base checker (or all) is an audited
	// escape and seeds nothing. Directives naming taint itself are NOT
	// consulted here — those suppress the taint diagnostic in the runner,
	// which also marks them used for the staleignore sweep.
	ignores := map[string]*ignoreSet{}
	for _, p := range analysisPkgs {
		ignores[p.Path] = collectIgnores(p, map[string]bool{
			"wallclock": true, "globalrand": true, "maprange": true,
		})
	}

	reached, parent := graph.Reach(roots)
	sources := collectTaintSources(graph)
	for _, s := range sources {
		if !reached[s.node] {
			continue
		}
		pkg := s.node.Pkg
		pos := pkg.Fset.Position(s.pos)
		if ig := ignores[pkg.Path]; ig != nil && ig.suppresses(s.base, pos) {
			continue
		}
		path := PathTo(parent, s.node)
		if checked[pkg.Path] {
			t.diags[pkg.Path] = append(t.diags[pkg.Path], diag(pkg, s.pos, "taint",
				"%s is reachable from a kernel entry point (%s)", s.desc, path))
			continue
		}
		// Source lives outside the checked set: report at the frontier —
		// the last call site inside a checked package on the BFS path.
		fpkg, fpos, callee := frontierSite(parent, s.node, checked)
		if fpkg == nil {
			continue
		}
		t.diags[fpkg.Path] = append(t.diags[fpkg.Path], diag(fpkg, fpos, "taint",
			"call to %s reaches %s (%s)", funcDisplayName(callee.Fn), s.desc, path))
	}
	return t
}

// Check returns the precomputed findings attributed to pkg.
func (t *Taint) Check(pkg *Package) []Diagnostic {
	return t.diags[pkg.Path]
}

// frontierSite walks the BFS path from the root toward src and returns
// the last call edge whose caller sits in a checked package: the
// position to report, the package owning it, and the callee stepped
// into.
func frontierSite(parent map[*CallNode]*CallEdge, src *CallNode, checked map[string]bool) (*Package, token.Pos, *CallNode) {
	var pkg *Package
	var pos token.Pos
	var callee *CallNode
	for cur := src; ; {
		e := parent[cur]
		if e == nil {
			break
		}
		if checked[e.Caller.Pkg.Path] {
			// The walk runs src→root, so the first checked edge it meets
			// is the one nearest the source: the frontier.
			pkg, pos, callee = e.Caller.Pkg, e.Pos, e.Callee
			break
		}
		cur = e.Caller
	}
	return pkg, pos, callee
}

// collectTaintSources scans every function body of the graph for direct
// nondeterminism sites. Map-order sources are delegated to the maprange
// analysis (run with full sibling context, so the collect-then-sort
// idiom is not mistaken for a source) and attributed to their enclosing
// function.
func collectTaintSources(g *CallGraph) []taintSource {
	var out []taintSource
	for _, n := range g.nodes {
		out = append(out, scanFuncSources(n)...)
	}
	var lastPath string
	for _, n := range g.nodes {
		if n.Pkg.Path == lastPath {
			continue // nodes are grouped by package; run maprange once each
		}
		lastPath = n.Pkg.Path
		for _, d := range (MapRange{}).Check(n.Pkg) {
			pos := posIn(n.Pkg, d.Pos)
			if owner := enclosingNode(g, n.Pkg, pos); owner != nil {
				out = append(out, taintSource{node: owner, pos: pos, base: "maprange",
					desc: "map-iteration-order-sensitive loop"})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.node.Pkg.Path != b.node.Pkg.Path {
			return a.node.Pkg.Path < b.node.Pkg.Path
		}
		return a.pos < b.pos
	})
	return out
}

// posIn converts a resolved token.Position back to the token.Pos it came
// from within pkg's fileset.
func posIn(pkg *Package, p token.Position) token.Pos {
	for _, f := range pkg.Files {
		tf := pkg.Fset.File(f.Pos())
		if tf != nil && tf.Name() == p.Filename {
			return tf.LineStart(p.Line) + token.Pos(p.Column-1)
		}
	}
	return token.NoPos
}

// enclosingNode finds the graph node whose declaration spans pos.
func enclosingNode(g *CallGraph, pkg *Package, pos token.Pos) *CallNode {
	if pos == token.NoPos {
		return nil
	}
	for _, n := range g.nodes {
		if n.Pkg == pkg && n.Decl.Pos() <= pos && pos <= n.Decl.End() {
			return n
		}
	}
	return nil
}

// scanFuncSources finds the wall-clock and ambient-rand sources directly
// inside one function body.
func scanFuncSources(n *CallNode) []taintSource {
	var out []taintSource
	pkg := n.Pkg
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		id, ok := node.(*ast.Ident)
		if !ok {
			return true
		}
		fn, ok := pkg.Info.Uses[id].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		switch fn.Pkg().Path() {
		case "time":
			switch fn.Name() {
			case "Now", "Since", "Tick":
				out = append(out, taintSource{node: n, pos: id.Pos(), base: "wallclock",
					desc: "wall-clock read (time." + fn.Name() + ")"})
			}
		case "math/rand", "math/rand/v2":
			if fn.Type().(*types.Signature).Recv() == nil && !randConstructors[fn.Name()] {
				out = append(out, taintSource{node: n, pos: id.Pos(), base: "globalrand",
					desc: "ambient randomness (rand." + fn.Name() + ")"})
			}
		}
		return true
	})
	return out
}
