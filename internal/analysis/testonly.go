package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// TestOnly flags code that only tests reach: every function, method
// and type declared in a non-test file of an internal/ package that no
// other non-test declaration references. Such code belongs in the one
// package's _test.go files that need it, or nowhere. References are
// resolved through the type checker (Info.Uses, which records every
// selector's method or field), so a method is never hidden by a
// same-named method of another type, and they are counted from every
// package of the tree whatever the requested pattern. A method also
// counts as used when it satisfies a method of an interface type by
// name and signature: it may then be called through that interface
// (fmt.Stringer, json.Marshaler, types.Importer). Deliberate keeps
// carry a `//vet:ignore testonly <reason>` marker, so -unused-ignores
// reports a keep that later gains a caller.
var TestOnly = &Analyzer{
	Name:      "testonly",
	Doc:       "forbid internal/ functions, methods and types that only tests reference",
	RunModule: runTestOnly,
}

func runTestOnly(pass *ModulePass) {
	var audited []*Package
	for _, pkg := range pass.Pkgs {
		if testOnlyScoped(pkg.Path) {
			audited = append(audited, pkg)
		}
	}
	if len(audited) == 0 {
		return
	}
	tree := treePackages(pass.Pkgs)
	used := make(map[types.Object]bool)
	for _, pkg := range tree {
		markUses(pkg, used)
	}
	ifaces := interfaceMethods(tree)
	report := func(pos token.Pos, name string) {
		pass.Reportf(pos, "no non-test code references %s: delete it, move it into the _test.go files that use it, or give it a production caller", name)
	}
	for _, pkg := range audited {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					fn, ok := pkg.Info.Defs[decl.Name].(*types.Func)
					if !ok || decl.Name.Name == "init" || decl.Name.Name == "_" || used[fn] {
						continue
					}
					if decl.Recv != nil && ifaces.satisfied(fn) {
						continue
					}
					report(decl.Name.Pos(), FuncDisplay(fn))
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok || ts.Name.Name == "_" {
							continue
						}
						if obj := pkg.Info.Defs[ts.Name]; obj != nil && !used[obj] {
							report(ts.Name.Pos(), pkg.Types.Name()+"."+ts.Name.Name)
						}
					}
				}
			}
		}
	}
}

// testOnlyScoped reports whether the rule audits the package at path:
// any package with an internal path element. Packages under testdata
// belong to no build; of those, only this rule's own fixtures
// (testdata/src/testonly_*) are audited, so the other rules' fixtures,
// whose entry points nothing calls, fail the mutation gate for their
// own rule alone.
func testOnlyScoped(path string) bool {
	if _, rest, ok := strings.Cut(path, "/testdata/"); ok {
		return strings.HasPrefix(rest, "src/testonly_")
	}
	return strings.Contains("/"+path+"/", "/internal/")
}

// treePackages is the requested set plus every package of the tree
// the requested packages were loaded from, so a symbol that some other
// package calls is not reported when only its own package is
// requested. A tree package that fails to load contributes nothing.
func treePackages(requested []*Package) []*Package {
	l := requested[0].loader
	if l == nil {
		return requested
	}
	out := append([]*Package(nil), requested...)
	seen := make(map[string]bool, len(requested))
	for _, pkg := range requested {
		seen[pkg.Path] = true
	}
	paths, _ := l.ModulePackages()
	for _, path := range paths {
		if seen[path] {
			continue
		}
		if pkg, err := l.Load(path); err == nil {
			out = append(out, pkg)
		}
	}
	return out
}

// markUses records every object a package-level declaration of pkg
// references, except references from inside the object's own
// declaration: recursion and a method's receiver type do not make a
// symbol used.
func markUses(pkg *Package, used map[types.Object]bool) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			var self types.Object
			var skip ast.Node
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				self = pkg.Info.Defs[decl.Name]
				if decl.Recv != nil {
					skip = decl.Recv
				}
			case *ast.GenDecl:
				if decl.Tok == token.TYPE {
					for _, spec := range decl.Specs {
						ts := spec.(*ast.TypeSpec)
						markRefs(pkg.Info, ts, pkg.Info.Defs[ts.Name], nil, used)
					}
					continue
				}
			}
			markRefs(pkg.Info, decl, self, skip, used)
		}
	}
}

// markRefs marks the objects that idents under root use, other than
// self and anything under skip.
func markRefs(info *types.Info, root ast.Node, self types.Object, skip ast.Node, used map[types.Object]bool) {
	ast.Inspect(root, func(n ast.Node) bool {
		if skip != nil && n == skip {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin() // a generic function's instances use the declaration
		}
		if obj != nil && obj != self {
			used[obj] = true
		}
		return true
	})
}

// ifaceMethods indexes interface method signatures by method name.
type ifaceMethods map[string][]*types.Signature

// interfaceMethods collects the methods of every interface type the
// tree can call through: error, the interfaces declared at package
// level in the tree and every package it imports, transitively, and
// every interface type an expression of the tree has.
func interfaceMethods(tree []*Package) ifaceMethods {
	m := make(ifaceMethods)
	added := make(map[*types.Interface]bool)
	add := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || added[it] {
			return
		}
		added[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			fn := it.Method(i)
			m[fn.Name()] = append(m[fn.Name()], fn.Type().(*types.Signature))
		}
	}
	add(types.Universe.Lookup("error").Type())
	seen := make(map[*types.Package]bool)
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range tree {
		visit(pkg.Types)
		for _, tv := range pkg.Info.Types {
			if tv.Type != nil {
				add(tv.Type)
			}
		}
	}
	return m
}

// satisfied reports whether method fn has the name and signature of
// some interface method.
func (m ifaceMethods) satisfied(fn *types.Func) bool {
	got := fn.Type().(*types.Signature)
	for _, want := range m[fn.Name()] {
		if want.Variadic() == got.Variadic() &&
			tupleMatches(want.Params(), got.Params()) &&
			tupleMatches(want.Results(), got.Results()) {
			return true
		}
	}
	return false
}

// tupleMatches compares an interface method's parameter or result list
// with a method's. A type parameter of a generic interface, as in
// `Canonicalize() (Q, error)`, matches any type.
func tupleMatches(want, got *types.Tuple) bool {
	if want.Len() != got.Len() {
		return false
	}
	for i := 0; i < want.Len(); i++ {
		w := want.At(i).Type()
		if _, param := w.(*types.TypeParam); !param && !types.Identical(w, got.At(i).Type()) {
			return false
		}
	}
	return true
}
