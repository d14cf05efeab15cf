package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Boxing bans scalar→interface conversions inside registered hot
// paths. Converting an int64, a string or a small struct to an
// interface value heap-allocates the boxed copy on every call — the
// per-event cost the simulator's completion paths avoid by passing a
// Completer and an int32 tag. The rule walks the same forward closure
// as hotalloc and flags the implicit and explicit conversion
// points: call arguments (including variadic ...any), explicit
// interface conversions, assignments to interface-typed variables,
// interface-typed returns, and interface-typed composite-literal
// elements. Pointers, slices, maps, channels and function values are
// out of scope (their interface representation is the word itself or
// deliberate), and panic arguments are exempt — a terminating path is
// not a hot path. Budgets use the "box" site kind in HOTPATH.md.
var Boxing = &Analyzer{
	Name:      "boxing",
	Doc:       "no scalar or struct to interface conversions in registered hot paths",
	RunModule: runBoxing,
}

func runBoxing(p *ModulePass) {
	hs := p.Hots()
	if len(hs.roots) == 0 {
		return
	}
	g := p.Graph()
	reach := p.hotReach()
	for _, node := range g.Sorted {
		if _, hot := reach[node.Func]; !hot {
			continue
		}
		if _, ok := hs.Allowed(node.Func, "box"); ok {
			continue
		}
		info := node.Pkg.Info
		seen := make(map[token.Pos]bool)
		report := func(pos token.Pos, from, to types.Type) {
			if seen[pos] {
				return
			}
			seen[pos] = true
			p.Report(Diagnostic{
				Pos: g.Fset.Position(pos),
				Message: fmt.Sprintf("%s boxed into %s in hot path %s; keep the signature concrete or budget it with `allow %s box <reason>` in %s",
					from, to, FuncDisplay(node.Func), FuncDisplay(node.Func), hotRegistryName),
				Related: hotChain(g, node.Func, reach),
			})
		}
		scanBoxing(info, node.Decl, report)
	}
}

// boxable reports whether converting from→to is a boxing allocation in
// scope for the rule: to is an interface, from is a concrete scalar,
// string, struct or array.
func boxable(from, to types.Type) bool {
	if from == nil || to == nil || !types.IsInterface(to) {
		return false
	}
	switch u := from.Underlying().(type) {
	case *types.Basic:
		return u.Kind() != types.UntypedNil && u.Kind() != types.Invalid
	case *types.Struct, *types.Array:
		return true
	}
	return false
}

// scanBoxing walks one declaration and reports every conversion point
// where a boxable value meets an interface type.
func scanBoxing(info *types.Info, fd *ast.FuncDecl, report func(pos token.Pos, from, to types.Type)) {
	if fd.Body == nil {
		return
	}
	typeOf := func(e ast.Expr) types.Type {
		if tv, ok := info.Types[e]; ok {
			return tv.Type
		}
		return nil
	}
	check := func(e ast.Expr, to types.Type) {
		if e == nil || to == nil {
			return
		}
		if from := typeOf(e); boxable(from, to) {
			report(e.Pos(), from, to)
		}
	}
	// Each function literal gets its own walk so return statements are
	// checked against the literal's result types, not the declaration's.
	var walk func(body *ast.BlockStmt, results *types.Tuple)
	walk = func(body *ast.BlockStmt, results *types.Tuple) {
		ast.Inspect(body, func(n ast.Node) bool {
			if isPanicCall(info, n) {
				return false
			}
			switch e := n.(type) {
			case *ast.FuncLit:
				if sig, ok := typeOf(e.Type).(*types.Signature); ok {
					walk(e.Body, sig.Results())
					return false
				}
			case *ast.CallExpr:
				if tv, ok := info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
					check(e.Args[0], tv.Type) // explicit conversion T(x)
					return true
				}
				sig, ok := typeOf(e.Fun).(*types.Signature)
				if !ok {
					return true
				}
				params := sig.Params()
				for i, arg := range e.Args {
					var pt types.Type
					switch {
					case sig.Variadic() && i >= params.Len()-1:
						if e.Ellipsis.IsValid() {
							continue // xs... passes the slice through
						}
						if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
							pt = s.Elem()
						}
					case i < params.Len():
						pt = params.At(i).Type()
					}
					check(arg, pt)
				}
			case *ast.AssignStmt:
				if e.Tok != token.ASSIGN || len(e.Lhs) != len(e.Rhs) {
					return true
				}
				for i := range e.Rhs {
					check(e.Rhs[i], typeOf(e.Lhs[i]))
				}
			case *ast.ValueSpec:
				if e.Type == nil {
					return true
				}
				to := typeOf(e.Type)
				for _, v := range e.Values {
					check(v, to)
				}
			case *ast.ReturnStmt:
				if results == nil || len(e.Results) != results.Len() {
					return true
				}
				for i, r := range e.Results {
					check(r, results.At(i).Type())
				}
			case *ast.CompositeLit:
				t := typeOf(e)
				if t == nil {
					return true
				}
				var elem types.Type
				switch u := t.Underlying().(type) {
				case *types.Slice:
					elem = u.Elem()
				case *types.Array:
					elem = u.Elem()
				case *types.Map:
					elem = u.Elem()
				default:
					return true
				}
				for _, el := range e.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						el = kv.Value
					}
					check(el, elem)
				}
			}
			return true
		})
	}
	var results *types.Tuple
	if fn, ok := info.Defs[fd.Name].(*types.Func); ok {
		results = fn.Type().(*types.Signature).Results()
	}
	walk(fd.Body, results)
}
