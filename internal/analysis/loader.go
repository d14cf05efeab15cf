package analysis

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

// Package is one loaded, type-checked package.
type Package struct {
	Path  string // import path, e.g. stronghold/internal/sim
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TypeErrors holds type-checker complaints. Analysis proceeds on a
	// best-effort basis, but the runner surfaces these so a broken tree
	// is not mistaken for a clean one.
	TypeErrors []error

	loader *Loader // the loader that type-checked it, for whole-tree rules
}

// Loader resolves and type-checks packages of the enclosing module
// using only the standard library: module-local import paths map to
// directories under the module root, and standard-library imports are
// type-checked from GOROOT source via go/importer's "source" mode (the
// gc export-data mode stopped shipping with the toolchain in Go 1.20).
type Loader struct {
	Fset       *token.FileSet
	ModuleRoot string
	ModulePath string

	std  types.Importer
	pkgs map[string]*Package // keyed by import path; nil while in flight
}

// NewLoader locates the module containing dir (by walking up to
// go.mod) and returns a loader rooted there.
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
			return nil, fmt.Errorf("analysis: no go.mod found above %s", abs)
		}
		root = parent
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	modPath := modulePath(string(data))
	if modPath == "" {
		return nil, fmt.Errorf("analysis: no module directive in %s/go.mod", root)
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		ModuleRoot: root,
		ModulePath: modPath,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       make(map[string]*Package),
	}, nil
}

// modulePath extracts the module path from go.mod text.
func modulePath(gomod string) string {
	for _, line := range strings.Split(gomod, "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}

// Import implements types.Importer so type-checked module packages can
// reference each other and the standard library.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// Load type-checks the module package with the given import path,
// memoizing the result.
func (l *Loader) Load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("analysis: import cycle through %s", path)
		}
		return pkg, nil
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
	dir := filepath.Join(l.ModuleRoot, filepath.FromSlash(rel))
	return l.loadDir(path, dir)
}

// LoadDir type-checks the package in an explicit directory (used for
// fixture packages under testdata/, which the module path mapping also
// reaches, and for command-line directory arguments).
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(l.ModuleRoot, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("analysis: %s is outside module %s", dir, l.ModuleRoot)
	}
	path := l.ModulePath
	if rel != "." {
		path = l.ModulePath + "/" + filepath.ToSlash(rel)
	}
	return l.loadDir(path, abs)
}

func (l *Loader) loadDir(path, dir string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("analysis: import cycle through %s", path)
		}
		return pkg, nil
	}
	l.pkgs[path] = nil // cycle guard
	ok := false
	defer func() {
		if !ok {
			delete(l.pkgs, path)
		}
	}()

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names) // deterministic file order → deterministic diagnostics
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}

	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	pkg := &Package{Path: path, Dir: dir, Fset: l.Fset, Files: files, Info: info, loader: l}
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if tpkg == nil {
		return nil, err
	}
	pkg.Types = tpkg
	l.pkgs[path] = pkg
	ok = true
	return pkg, nil
}

// ModulePackages walks the module tree and returns the import paths of
// every buildable package, skipping testdata, hidden directories and
// the results directory. This is the expansion of the "./..." pattern.
func (l *Loader) ModulePackages() ([]string, error) {
	var paths []string
	err := filepath.WalkDir(l.ModuleRoot, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != l.ModuleRoot && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".go") || strings.HasSuffix(d.Name(), "_test.go") {
			return nil
		}
		dir := filepath.Dir(p)
		rel, err := filepath.Rel(l.ModuleRoot, dir)
		if err != nil {
			return err
		}
		path := l.ModulePath
		if rel != "." {
			path = l.ModulePath + "/" + filepath.ToSlash(rel)
		}
		if len(paths) == 0 || paths[len(paths)-1] != path {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	// Dedup (WalkDir visits files in order, but be safe).
	out := paths[:0]
	for i, p := range paths {
		if i == 0 || paths[i-1] != p {
			out = append(out, p)
		}
	}
	return out, nil
}
