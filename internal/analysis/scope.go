package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// The simulator contract is anchored on two packages: the event engine
// and the hardware models built on it. Paths are matched by suffix so
// the rules survive a module rename.
const (
	simPkgSuffix   = "internal/sim"
	hwPkgSuffix    = "internal/hw"
	memPkgSuffix   = "internal/mem"
	tracePkgSuffix = "internal/trace"
	faultPkgSuffix = "internal/fault"
	perfPkgSuffix  = "internal/perf"
)

func isSimPkgPath(path string) bool { return strings.HasSuffix(path, simPkgSuffix) }
func isHwPkgPath(path string) bool  { return strings.HasSuffix(path, hwPkgSuffix) }

// isSimulationPkg reports whether the pass's package is part of the
// deterministic simulation: the engine itself, the hardware models, or
// any package that builds directly on either.
func isSimulationPkg(pass *Pass) bool {
	return isSimulationScoped(pass.PkgPath, pass.Pkg)
}

// isSimulationScoped is isSimulationPkg on raw (path, types) pairs, for
// module-wide rules that classify many packages.
func isSimulationScoped(path string, pkg *types.Package) bool {
	if isSimPkgPath(path) || isHwPkgPath(path) {
		return true
	}
	if pkg == nil {
		return false
	}
	for _, imp := range pkg.Imports() {
		if isSimPkgPath(imp.Path()) || isHwPkgPath(imp.Path()) {
			return true
		}
	}
	return false
}

// determinismScoped is the widest scope of the interprocedural
// nondeterminism rules: the simulation packages plus the packages whose
// internal ordering feeds them — the allocator, the trace recorder and
// the fault injector.
func determinismScoped(path string, pkg *types.Package) bool {
	return isSimulationScoped(path, pkg) ||
		strings.HasSuffix(path, memPkgSuffix) ||
		strings.HasSuffix(path, tracePkgSuffix) ||
		strings.HasSuffix(path, faultPkgSuffix)
}

// fileImportsSim reports whether one file imports the sim or hw
// package — the file-level scope for the enginepure rule, chosen so
// that the functional trainers (real goroutine-parallel computation in
// the same package as simulation code, but in files that never touch
// the engine) stay out of scope.
func fileImportsSim(f *ast.File) bool {
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		if isSimPkgPath(path) || isHwPkgPath(path) {
			return true
		}
	}
	return false
}

// fileUsesEngineType reports whether any expression in f has a type
// that is, points to, or structurally contains an engine type. This is
// the transitive half of the enginepure scope: a file that reaches the
// engine through a wrapper package's types is engine-owning even
// though it never imports sim or hw itself.
func fileUsesEngineType(info *types.Info, f *ast.File) bool {
	memo := make(map[types.Type]bool)
	contains := func(t types.Type) bool {
		if t == nil {
			return false
		}
		if v, ok := memo[t]; ok {
			return v
		}
		v := containsEngineType(t)
		memo[t] = v
		return v
	}
	found := false
	ast.Inspect(f, func(n ast.Node) bool {
		if found {
			return false
		}
		expr, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		if tv, ok := info.Types[expr]; ok && contains(tv.Type) {
			found = true
			return false
		}
		return true
	})
	return found
}

// fileEngineOwning is the v3 enginepure scope: the file imports sim or
// hw, or it touches engine-owning types transitively through another
// package's wrappers.
func fileEngineOwning(pkg *Package, f *ast.File) bool {
	return fileImportsSim(f) || fileUsesEngineType(pkg.Info, f)
}

// engineTypeNames are the single-goroutine simulation types: sharing
// one of these across goroutines breaks the determinism contract.
var engineTypeNames = map[string]map[string]bool{
	simPkgSuffix: {"Engine": true, "Resource": true, "Pool": true, "SharedProcessor": true, "Timer": true},
	hwPkgSuffix:  {"Machine": true, "Stream": true},
}

// isEngineNamed reports whether named is one of the engine types.
func isEngineNamed(named *types.Named) bool {
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	for suffix, names := range engineTypeNames {
		if strings.HasSuffix(obj.Pkg().Path(), suffix) && names[obj.Name()] {
			return true
		}
	}
	return false
}

// containsEngineType reports whether t is, points to, or structurally
// contains an engine type (so capturing a struct that embeds a
// *hw.Machine is as flagged as capturing the machine itself).
func containsEngineType(t types.Type) bool {
	return containsEngine(t, make(map[types.Type]bool))
}

func containsEngine(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	switch u := t.(type) {
	case *types.Named:
		if isEngineNamed(u) {
			return true
		}
		return containsEngine(u.Underlying(), seen)
	case *types.Pointer:
		return containsEngine(u.Elem(), seen)
	case *types.Slice:
		return containsEngine(u.Elem(), seen)
	case *types.Array:
		return containsEngine(u.Elem(), seen)
	case *types.Map:
		return containsEngine(u.Key(), seen) || containsEngine(u.Elem(), seen)
	case *types.Chan:
		return containsEngine(u.Elem(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsEngine(u.Field(i).Type(), seen) {
				return true
			}
		}
	}
	return false
}

// engineTypeString names the engine type inside t for diagnostics
// (best effort; falls back to t's own string).
func engineTypeString(t types.Type) string {
	var found string
	var walk func(types.Type, map[types.Type]bool)
	walk = func(t types.Type, seen map[types.Type]bool) {
		if t == nil || seen[t] || found != "" {
			return
		}
		seen[t] = true
		switch u := t.(type) {
		case *types.Named:
			if isEngineNamed(u) {
				obj := u.Obj()
				parts := strings.Split(obj.Pkg().Path(), "/")
				found = parts[len(parts)-1] + "." + obj.Name()
				return
			}
			walk(u.Underlying(), seen)
		case *types.Pointer:
			walk(u.Elem(), seen)
		case *types.Slice:
			walk(u.Elem(), seen)
		case *types.Array:
			walk(u.Elem(), seen)
		case *types.Map:
			walk(u.Key(), seen)
			walk(u.Elem(), seen)
		case *types.Chan:
			walk(u.Elem(), seen)
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				walk(u.Field(i).Type(), seen)
			}
		}
	}
	walk(t, make(map[types.Type]bool))
	if found == "" {
		return t.String()
	}
	return found
}

// pkgFuncUse resolves a selector to a package-level function and
// returns its package path and name (empty strings when sel is a
// method call or not a function).
func pkgFuncUse(pass *Pass, sel *ast.SelectorExpr) (pkgPath, name string) {
	if _, isMethod := pass.Info.Selections[sel]; isMethod {
		return "", ""
	}
	obj := pass.Info.Uses[sel.Sel]
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", ""
	}
	return fn.Pkg().Path(), fn.Name()
}

// methodCallee resolves a call to a concrete method and returns the
// receiver's named type and the method name (nil/"" otherwise).
func methodCallee(pass *Pass, call *ast.CallExpr) (*types.Named, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	selection, ok := pass.Info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return nil, ""
	}
	recv := selection.Recv()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return nil, ""
	}
	return named, sel.Sel.Name
}

// namedIn reports whether named lives in a package whose path ends in
// suffix and has one of the given names.
func namedIn(named *types.Named, suffix string, names ...string) bool {
	if named == nil {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil || !strings.HasSuffix(obj.Pkg().Path(), suffix) {
		return false
	}
	for _, n := range names {
		if obj.Name() == n {
			return true
		}
	}
	return false
}
