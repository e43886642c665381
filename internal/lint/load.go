package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Loader parses and type-checks packages of one module using only the
// standard library: module-internal imports resolve recursively through
// the loader itself, standard-library imports through the stdlib source
// importer (go/importer "source" mode), which needs no prebuilt export
// data. Test files (_test.go) are skipped — the determinism contract
// covers shipped code, and tests are free to iterate maps.
type Loader struct {
	fset   *token.FileSet
	root   string // module root directory (absolute)
	module string // module path from go.mod
	std    types.Importer
	pkgs   map[string]*Package // keyed by directory (absolute)
	stack  map[string]bool     // import-cycle guard
}

// NewLoader returns a loader rooted at the module containing dir.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("lint: no go.mod above %s", abs)
		}
		root = parent
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	module := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			module = strings.TrimSpace(rest)
			break
		}
	}
	if module == "" {
		return nil, fmt.Errorf("lint: no module directive in %s/go.mod", root)
	}
	fset := token.NewFileSet()
	return &Loader{
		fset:   fset,
		root:   root,
		module: module,
		std:    importer.ForCompiler(fset, "source", nil),
		pkgs:   make(map[string]*Package),
		stack:  make(map[string]bool),
	}, nil
}

// Module returns the module path of the loaded tree.
func (l *Loader) Module() string { return l.module }

// Root returns the module root directory (absolute).
func (l *Loader) Root() string { return l.root }

// Deps returns the module-internal import closure of the named packages,
// themselves included: every package of this module they import,
// directly or transitively, read from the type-checked packages the
// loader already holds. Standard-library imports are left out, and so is
// a path the loader has not loaded.
func (l *Loader) Deps(paths ...string) map[string]bool {
	out := map[string]bool{}
	var walk func(tp *types.Package)
	walk = func(tp *types.Package) {
		if out[tp.Path()] || !l.inModule(tp.Path()) {
			return
		}
		out[tp.Path()] = true
		for _, imp := range tp.Imports() {
			walk(imp)
		}
	}
	for _, path := range paths {
		if pkg := l.pkgs[l.dirOf(path)]; pkg != nil && pkg.Path == path && pkg.Types != nil {
			walk(pkg.Types)
		}
	}
	return out
}

// Load resolves patterns relative to dir and returns the matched
// packages in deterministic (import path) order. Supported patterns:
// "./..." and "dir/..." recursive forms, plus plain directory paths.
// Directories named testdata or vendor, dot/underscore directories, and
// nested modules (a subdirectory with its own go.mod, such as bench/)
// are skipped, mirroring the go tool.
func (l *Loader) Load(dir string, patterns ...string) ([]*Package, error) {
	dirs := map[string]bool{}
	for _, pat := range patterns {
		base := dir
		rec := false
		if pat == "..." || strings.HasSuffix(pat, "/...") {
			rec = true
			pat = strings.TrimSuffix(strings.TrimSuffix(pat, "..."), "/")
			if pat == "" || pat == "." {
				pat = "."
			}
		}
		target := filepath.Join(base, pat)
		if filepath.IsAbs(pat) {
			target = pat
		}
		if !rec {
			dirs[target] = true
			continue
		}
		err := filepath.WalkDir(target, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != target && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if path != target {
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			if hasGoFiles(path) {
				dirs[path] = true
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	// Load in sorted directory order so both results and any load error
	// are deterministic (the linter lints itself).
	sorted := make([]string, 0, len(dirs))
	for d := range dirs {
		sorted = append(sorted, d)
	}
	sort.Strings(sorted)
	var out []*Package
	for _, d := range sorted {
		pkg, err := l.LoadDir(d)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			out = append(out, pkg)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// LoadDir parses and type-checks the package in one directory. It
// returns (nil, nil) for directories without non-test Go files.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	if pkg, ok := l.pkgs[abs]; ok {
		return pkg, nil
	}
	if l.stack[abs] {
		return nil, fmt.Errorf("lint: import cycle through %s", abs)
	}
	l.stack[abs] = true
	defer delete(l.stack, abs)

	entries, err := os.ReadDir(abs)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(abs, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}

	path := l.importPath(abs)
	pkg := &Package{
		Path: path,
		Dir:  abs,
		Fset: l.fset,
		Info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Scopes:     map[ast.Node]*types.Scope{},
		},
		Files: files,
	}
	conf := types.Config{
		Importer: &loaderImporter{l: l},
		Error: func(err error) {
			pkg.TypeErrors = append(pkg.TypeErrors, err)
		},
	}
	tpkg, _ := conf.Check(path, l.fset, files, pkg.Info)
	pkg.Types = tpkg
	l.pkgs[abs] = pkg
	return pkg, nil
}

// importPath derives the import path for a directory: module-relative
// for directories under the module root, synthetic elsewhere (fixtures).
func (l *Loader) importPath(abs string) string {
	if rel, err := filepath.Rel(l.root, abs); err == nil && !strings.HasPrefix(rel, "..") {
		if rel == "." {
			return l.module
		}
		return l.module + "/" + filepath.ToSlash(rel)
	}
	return filepath.ToSlash(abs)
}

// inModule reports whether an import path belongs to the loaded module.
func (l *Loader) inModule(path string) bool {
	return path == l.module || strings.HasPrefix(path, l.module+"/")
}

// dirOf is importPath's inverse for a module import path.
func (l *Loader) dirOf(path string) string {
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.module), "/")
	return filepath.Join(l.root, filepath.FromSlash(rel))
}

type loaderImporter struct{ l *Loader }

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if li.l.inModule(path) {
		pkg, err := li.l.LoadDir(li.l.dirOf(path))
		if err != nil {
			return nil, err
		}
		if pkg == nil || pkg.Types == nil {
			return nil, fmt.Errorf("lint: no package at %s", path)
		}
		return pkg.Types, nil
	}
	return li.l.std.Import(path)
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			return true
		}
	}
	return false
}
