package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file is the nondeterminism taint lattice. The lattice has two
// ends:
//
//   - sources — operations whose result depends on something other
//     than program input: map iteration order, the wall clock
//     (time.Now and friends), the unseeded global math/rand stream,
//     and goroutine interleaving;
//   - sinks — places where an ordering or a value becomes part of the
//     simulator's observable, byte-compared output: trace track
//     emission, sim event scheduling, allocator mutations (their
//     counters land in perf.IterationResult / stronghold.SimResult),
//     result-field writes, and canonical String() forms.
//
// The per-package rules catch a source used in the same function as a
// sink; the module rules close the gap across call boundaries by
// propagating "reaches a source" / "performs a sink" facts over the
// call graph and reporting the full chain. Propagation follows static
// call edges only (see CallGraph); dynamic dispatch is documented
// under-approximation, not over-reporting.

// Witness explains why a function carries a reachability fact: either
// the site of the operation itself (Via == nil) or the call site of
// the next function on the path toward it.
type Witness struct {
	Site token.Pos   // operation site (Via == nil) or call site
	Desc string      // description of the ultimate source/sink
	Via  *types.Func // next hop on the path, nil at the end
}

// Reachable computes the closure of functions that reach a seed
// through static calls: a function is in the result if it is a seed or
// if any function it calls is. Each member carries a deterministic
// witness; following Via hops reconstructs one concrete path to the
// seeded operation.
func (g *CallGraph) Reachable(seeds map[*types.Func]Witness) map[*types.Func]Witness {
	out := make(map[*types.Func]Witness, len(seeds))
	var queue []*CallNode
	for _, node := range g.Sorted { // deterministic seed order
		if w, ok := seeds[node.Func]; ok {
			out[node.Func] = w
			queue = append(queue, node)
		}
	}
	for len(queue) > 0 {
		node := queue[0]
		queue = queue[1:]
		w := out[node.Func]
		for _, e := range node.In {
			if _, ok := out[e.Caller.Func]; ok {
				continue
			}
			out[e.Caller.Func] = Witness{Site: e.Pos, Desc: w.Desc, Via: node.Func}
			queue = append(queue, e.Caller)
		}
	}
	return out
}

// Chain renders the witness path from start down to the seeded
// operation as related locations, outermost call first.
func (g *CallGraph) Chain(start *types.Func, reach map[*types.Func]Witness) []Related {
	var out []Related
	f := start
	for i := 0; f != nil && i < 64; i++ {
		w, ok := reach[f]
		if !ok {
			break
		}
		pos := g.Fset.Position(w.Site)
		if w.Via == nil {
			out = append(out, Related{Pos: pos, Message: w.Desc + " here"})
			break
		}
		out = append(out, Related{Pos: pos, Message: fmt.Sprintf("%s calls %s", FuncDisplay(f), FuncDisplay(w.Via))})
		f = w.Via
	}
	return out
}

// FuncDisplay renders a function compactly for diagnostics:
// pkg.Func or pkg.Type.Method.
func FuncDisplay(f *types.Func) string {
	name := f.Name()
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	if f.Pkg() != nil {
		parts := strings.Split(f.Pkg().Path(), "/")
		name = parts[len(parts)-1] + "." + name
	}
	return name
}

// siteFn receives one detected source/sink operation.
type siteFn func(pos token.Pos, desc string)

// pkgFuncUseInfo resolves a selector to a package-level function use,
// returning its package path and name ("", "" for methods and
// non-functions).
func pkgFuncUseInfo(info *types.Info, sel *ast.SelectorExpr) (pkgPath, name string) {
	if _, isMethod := info.Selections[sel]; isMethod {
		return "", ""
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", ""
	}
	return fn.Pkg().Path(), fn.Name()
}

// methodCalleeInfo resolves a call to a concrete method and returns
// the receiver's named type and the method name (nil/"" otherwise).
func methodCalleeInfo(info *types.Info, call *ast.CallExpr) (*types.Named, string) {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	selection, ok := info.Selections[sel]
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

// scanWallClock reports every wall-clock time package use under root.
func scanWallClock(info *types.Info, root ast.Node, report siteFn) {
	ast.Inspect(root, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgPath, name := pkgFuncUseInfo(info, sel)
		if pkgPath == "time" && wallClockFuncs[name] {
			report(sel.Pos(), "wall-clock time."+name)
		}
		return true
	})
}

// scanGlobalRand reports every use of the unseeded global math/rand
// stream under root.
func scanGlobalRand(info *types.Info, root ast.Node, report siteFn) {
	ast.Inspect(root, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgPath, name := pkgFuncUseInfo(info, sel)
		if (pkgPath == "math/rand" || pkgPath == "math/rand/v2") && !seededRandCtors[name] && name != "" {
			report(sel.Pos(), "unseeded "+pkgPath+"."+name)
		}
		return true
	})
}

// Order-sensitive sink operations, keyed by package suffix → type →
// methods. These are the operations whose invocation order is part of
// the simulator's byte-compared output: event scheduling decides trace
// span order, allocator traffic lands in the result counters.
var sinkMethods = map[string]map[string]map[string]bool{
	tracePkgSuffix: {
		"Trace": {"Add": true},
	},
	simPkgSuffix: {
		"Engine":          {"Schedule": true, "At": true, "Reset": true},
		"Resource":        {"Submit": true},
		"Pool":            {"Submit": true},
		"SharedProcessor": {"Submit": true},
	},
	memPkgSuffix: {
		"Arena":            {"Alloc": true, "Release": true},
		"CachingAllocator": {"Get": true, "Put": true, "ReleaseAll": true},
		"RoundRobinPool":   {"Acquire": true, "Release": true, "Destroy": true},
	},
}

// resultStructs are the result types whose field writes are sinks
// (type name → required package suffix; empty = any module package).
var resultStructs = map[string]string{
	"IterationResult": perfPkgSuffix,
	"SimResult":       "",
}

// scanSinkOps reports every direct order-sensitive sink operation
// under root: sink method/function calls and result-struct field
// writes.
func scanSinkOps(info *types.Info, root ast.Node, report siteFn) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if named, meth := methodCalleeInfo(info, n); named != nil {
				obj := named.Obj()
				if obj != nil && obj.Pkg() != nil {
					for suffix, byType := range sinkMethods {
						if strings.HasSuffix(obj.Pkg().Path(), suffix) && byType[obj.Name()][meth] {
							short := suffix[strings.LastIndex(suffix, "/")+1:]
							report(n.Pos(), fmt.Sprintf("order-sensitive sink %s.%s.%s", short, obj.Name(), meth))
						}
					}
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				sel, ok := lhs.(*ast.SelectorExpr)
				if !ok {
					continue
				}
				t := info.Types[sel.X].Type
				if t == nil {
					continue
				}
				if p, ok := t.(*types.Pointer); ok {
					t = p.Elem()
				}
				named, ok := t.(*types.Named)
				if !ok {
					continue
				}
				obj := named.Obj()
				if obj == nil || obj.Pkg() == nil {
					continue
				}
				suffix, tracked := resultStructs[obj.Name()]
				if !tracked || !strings.HasSuffix(obj.Pkg().Path(), suffix) {
					continue
				}
				report(sel.Pos(), fmt.Sprintf("order-sensitive sink: %s.%s field write", obj.Name(), sel.Sel.Name))
			}
		}
		return true
	})
}

// Closure names shared through the fact store.
const (
	reachWallClock  = "wallclock"
	reachGlobalRand = "globalrand"
	reachSinkOps    = "sinkops"
)

// reachClosure computes (once per module, via the fact store) the set
// of functions that transitively reach an operation found by scan.
func reachClosure(m *Module, name string, scan func(info *types.Info, root ast.Node, report siteFn)) map[*types.Func]Witness {
	return m.Facts().ReachSet(name, func() map[*types.Func]Witness {
		g := m.Graph()
		seeds := make(map[*types.Func]Witness)
		for _, node := range g.Sorted {
			fn := node.Func
			info := node.Pkg.Info
			scan(info, node.Decl.Body, func(pos token.Pos, desc string) {
				if _, ok := seeds[fn]; !ok {
					seeds[fn] = Witness{Site: pos, Desc: desc}
				}
			})
		}
		return g.Reachable(seeds)
	})
}
