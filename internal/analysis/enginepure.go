package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// EnginePure enforces the single-goroutine event-engine contract. The
// whole simulation — engine, resources, machines, streams —
// runs on the calling goroutine; that is the property that makes event
// order, and therefore every reported figure, deterministic. Any
// engine-owning file — one that imports the sim or hw package, or
// touches engine-owning types transitively through another package's
// wrappers — must not start goroutines, build or operate on channels,
// or reach for sync primitives; and nowhere in the tree may a
// goroutine capture (or be handed) an engine-owning value, whether as
// an argument, a method receiver, a closed-over variable, a bound
// method value (`f := eng.Run; go f()`), or a closure passed to a
// helper that spawns its argument.
//
// The functional trainers (real goroutine-parallel computation living
// beside the simulation code) stay legal: their files neither import
// sim/hw nor touch engine types, and their concurrency never does.
var EnginePure = &Analyzer{
	Name:      "enginepure",
	Doc:       "forbid goroutines, channels and sync primitives in engine-owning files, and engine captures in any goroutine",
	RunModule: runEnginePure,
}

func runEnginePure(pass *ModulePass) {
	spawners := spawnerParams(pass.Module)
	for _, pkg := range pass.Pkgs {
		for _, f := range pkg.Files {
			runEnginePureFile(pass, spawners, pkg, f)
		}
	}
}

func runEnginePureFile(pass *ModulePass, spawners map[*types.Func]map[int]bool, pkg *Package, f *ast.File) {
	inScope := fileEngineOwning(pkg, f)
	blanket := func(pos token.Pos, format string, args ...any) {
		if inScope {
			pass.Reportf(pos, format, args...)
		}
	}

	for _, imp := range f.Imports {
		switch path := strings.Trim(imp.Path.Value, `"`); path {
		case "sync", "sync/atomic":
			blanket(imp.Pos(),
				"import of %s in an engine-owning file: the simulation is single-goroutine by contract", path)
		}
	}

	// Selector sels are skipped during capture analysis: a field
	// reference x.f resolves f to the field object, which is not a
	// captured variable.
	selSels := make(map[*ast.Ident]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			selSels[sel.Sel] = true
		}
		return true
	})
	boundMethods := engineBoundMethods(pkg.Info, f)

	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			if !reportEngineCapture(pass, pkg.Info, n, selSels, boundMethods) {
				blanket(n.Pos(), "go statement in an engine-owning file: the simulation is single-goroutine by contract")
			}
		case *ast.CallExpr:
			reportSpawnerCapture(pass, pkg.Info, n, selSels, boundMethods, spawners)
		case *ast.ChanType:
			blanket(n.Pos(), "channel in an engine-owning file: express dependencies as plan edges, not CSP")
		case *ast.SendStmt:
			blanket(n.Pos(), "channel send in an engine-owning file")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				blanket(n.Pos(), "channel receive in an engine-owning file")
			}
		case *ast.SelectStmt:
			blanket(n.Pos(), "select statement in an engine-owning file")
		case *ast.RangeStmt:
			if tv, ok := pkg.Info.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					blanket(n.Pos(), "range over channel in an engine-owning file")
				}
			}
		}
		return true
	})
}

// engineBoundMethods maps variables in f that hold a bound method
// value of an engine-owning receiver (`f := eng.Run`) to the engine
// type's display name. `go f()` through such a variable smuggles the
// receiver onto the new goroutine just as surely as `go eng.Run()`.
func engineBoundMethods(info *types.Info, f *ast.File) map[types.Object]string {
	out := make(map[types.Object]string)
	record := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return
		}
		sel, ok := rhs.(*ast.SelectorExpr)
		if !ok {
			return
		}
		selection, ok := info.Selections[sel]
		if !ok || selection.Kind() != types.MethodVal {
			return
		}
		if tv, ok := info.Types[sel.X]; ok && containsEngineType(tv.Type) {
			obj := info.Defs[id]
			if obj == nil {
				obj = info.Uses[id]
			}
			if obj != nil {
				out[obj] = engineTypeString(tv.Type)
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i := range n.Lhs {
				if i < len(n.Rhs) {
					record(n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			for i := range n.Names {
				if i < len(n.Values) {
					record(n.Names[i], n.Values[i])
				}
			}
		}
		return true
	})
	return out
}

// reportEngineCapture flags a goroutine that shares an engine-owning
// value — as a call argument, a method receiver, a closed-over
// variable, or a bound method value — and reports whether it found
// one.
func reportEngineCapture(pass *ModulePass, info *types.Info, g *ast.GoStmt, selSels map[*ast.Ident]bool, boundMethods map[types.Object]string) bool {
	call := g.Call
	for _, arg := range call.Args {
		if tv, ok := info.Types[arg]; ok && containsEngineType(tv.Type) {
			pass.Reportf(arg.Pos(), "goroutine receives %s: engine-owning values must stay on the simulation goroutine",
				engineTypeString(tv.Type))
			return true
		}
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if tv, ok := info.Types[sel.X]; ok && containsEngineType(tv.Type) {
			pass.Reportf(sel.Pos(), "goroutine runs a method on %s: engine-owning values must stay on the simulation goroutine",
				engineTypeString(tv.Type))
			return true
		}
	}
	if id, ok := call.Fun.(*ast.Ident); ok {
		obj := info.Uses[id]
		if disp, ok := boundMethods[obj]; ok {
			pass.Reportf(id.Pos(), "goroutine runs %q, a method value bound to %s: engine-owning values must stay on the simulation goroutine",
				id.Name, disp)
			return true
		}
	}
	lit, ok := call.Fun.(*ast.FuncLit)
	if !ok {
		return false
	}
	if name, disp, ok := closureEngineCapture(info, lit, selSels); ok {
		pass.Reportf(name.Pos(), "goroutine closure captures %q (%s): engine-owning values must stay on the simulation goroutine",
			name.Name, disp)
		return true
	}
	return false
}

// closureEngineCapture finds the first variable a function literal
// closes over whose type contains an engine type.
func closureEngineCapture(info *types.Info, lit *ast.FuncLit, selSels map[*ast.Ident]bool) (*ast.Ident, string, bool) {
	var found *ast.Ident
	var disp string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok || selSels[id] {
			return true
		}
		obj, ok := info.Uses[id].(*types.Var)
		if !ok || obj.IsField() {
			return true
		}
		if obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End() {
			return true // declared inside the goroutine: not a capture
		}
		if containsEngineType(obj.Type()) {
			found, disp = id, engineTypeString(obj.Type())
			return false
		}
		return true
	})
	return found, disp, found != nil
}

// spawnerParams computes, by fixpoint over the call graph, which
// function parameters end up spawned on a goroutine: a parameter that
// is the function of a `go` statement directly, or that is passed into
// another spawning parameter. `spawn(func(){ eng.Run() })` hands the
// engine to a goroutine just as `go func(){ eng.Run() }()` does; the
// wrapper must not launder the capture.
func spawnerParams(m *Module) map[*types.Func]map[int]bool {
	g := m.Graph()
	out := make(map[*types.Func]map[int]bool)
	mark := func(fn *types.Func, idx int) bool {
		set := out[fn]
		if set == nil {
			set = make(map[int]bool)
			out[fn] = set
		}
		if set[idx] {
			return false
		}
		set[idx] = true
		return true
	}
	for changed := true; changed; {
		changed = false
		for _, node := range g.Sorted {
			params := paramObjects(node)
			if len(params) == 0 {
				continue
			}
			info := node.Pkg.Info
			ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.GoStmt:
					if id, ok := n.Call.Fun.(*ast.Ident); ok {
						if idx, ok := params[info.Uses[id]]; ok {
							if mark(node.Func, idx) {
								changed = true
							}
						}
					}
				case *ast.CallExpr:
					callee := CalleeFunc(info, n)
					spawned := out[callee]
					if spawned == nil {
						return true
					}
					for i, arg := range n.Args {
						if !spawned[i] {
							continue
						}
						id, ok := arg.(*ast.Ident)
						if !ok {
							continue
						}
						if idx, ok := params[info.Uses[id]]; ok {
							if mark(node.Func, idx) {
								changed = true
							}
						}
					}
				}
				return true
			})
		}
	}
	return out
}

// paramObjects maps a declaration's parameter objects to their index.
func paramObjects(node *CallNode) map[types.Object]int {
	out := make(map[types.Object]int)
	idx := 0
	if node.Decl.Type.Params == nil {
		return out
	}
	for _, field := range node.Decl.Type.Params.List {
		if len(field.Names) == 0 {
			idx++
			continue
		}
		for _, name := range field.Names {
			if obj := node.Pkg.Info.Defs[name]; obj != nil {
				out[obj] = idx
			}
			idx++
		}
	}
	return out
}

// reportSpawnerCapture flags a call handing an engine-capturing
// function value to a parameter that ends up on a goroutine.
func reportSpawnerCapture(pass *ModulePass, info *types.Info, call *ast.CallExpr, selSels map[*ast.Ident]bool, boundMethods map[types.Object]string, spawners map[*types.Func]map[int]bool) {
	callee := CalleeFunc(info, call)
	spawned := spawners[callee]
	if spawned == nil {
		return
	}
	for i, arg := range call.Args {
		if !spawned[i] || i >= len(call.Args) {
			continue
		}
		switch a := arg.(type) {
		case *ast.FuncLit:
			if name, disp, ok := closureEngineCapture(info, a, selSels); ok {
				pass.Reportf(name.Pos(),
					"closure passed to %s runs on a goroutine and captures %q (%s): engine-owning values must stay on the simulation goroutine",
					FuncDisplay(callee), name.Name, disp)
			}
		case *ast.SelectorExpr:
			if selection, ok := info.Selections[a]; ok && selection.Kind() == types.MethodVal {
				if tv, ok := info.Types[a.X]; ok && containsEngineType(tv.Type) {
					pass.Reportf(a.Pos(),
						"method value on %s passed to %s runs on a goroutine: engine-owning values must stay on the simulation goroutine",
						engineTypeString(tv.Type), FuncDisplay(callee))
				}
			}
		case *ast.Ident:
			if disp, ok := boundMethods[info.Uses[a]]; ok {
				pass.Reportf(a.Pos(),
					"%q, a method value bound to %s, passed to %s runs on a goroutine: engine-owning values must stay on the simulation goroutine",
					a.Name, disp, FuncDisplay(callee))
			}
		}
	}
}
