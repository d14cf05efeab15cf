package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Module bundles every loaded package with the lazily-built
// interprocedural infrastructure shared by module-wide analyzers: the
// static call graph and the fact store.
type Module struct {
	Fset *token.FileSet
	Pkgs []*Package // sorted by import path

	graph *CallGraph
	facts *FactStore
	hots  *HotSet
}

// NewModule wraps an already-sorted, deduplicated package set.
func NewModule(pkgs []*Package) *Module {
	return &Module{Fset: pkgs[0].Fset, Pkgs: pkgs}
}

// Graph builds (once) and returns the module call graph.
func (m *Module) Graph() *CallGraph {
	if m.graph == nil {
		m.graph = BuildCallGraph(m.Fset, m.Pkgs)
	}
	return m.graph
}

// Facts returns the module fact store, creating it on first use.
func (m *Module) Facts() *FactStore {
	if m.facts == nil {
		m.facts = NewFactStore()
	}
	return m.facts
}

// CallGraph is a static, flow-insensitive call graph over every
// declared function and method in the loaded packages. Only statically
// resolvable callees produce edges: package-level functions and
// concrete (non-interface) method calls. Calls through interfaces,
// function values and deferred closures are not edges — the taint
// rules are therefore under- rather than over-approximate across
// dynamic dispatch, which the fixture suite documents.
type CallGraph struct {
	Fset  *token.FileSet
	Nodes map[*types.Func]*CallNode
	// Sorted is every node in deterministic (file position) order; all
	// graph traversals iterate it rather than the Nodes map.
	Sorted []*CallNode
}

// CallNode is one declared function with its static call sites.
type CallNode struct {
	Func *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	Out  []Edge // call sites in source order, one per distinct callee
	In   []Edge // reverse edges, sorted by caller position
}

// Edge is one caller→callee link, positioned at the call site.
type Edge struct {
	Caller, Callee *CallNode
	Pos            token.Pos
}

// BuildCallGraph constructs the graph over the given packages. Bodies
// of function literals are attributed to the enclosing declaration.
func BuildCallGraph(fset *token.FileSet, pkgs []*Package) *CallGraph {
	g := &CallGraph{Fset: fset, Nodes: make(map[*types.Func]*CallNode)}

	// First pass: one node per declared function/method.
	for _, pkg := range pkgs {
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
				node := &CallNode{Func: fn, Decl: fd, Pkg: pkg}
				g.Nodes[fn] = node
				g.Sorted = append(g.Sorted, node)
			}
		}
	}
	sort.Slice(g.Sorted, func(i, j int) bool {
		a, b := fset.Position(g.Sorted[i].Decl.Pos()), fset.Position(g.Sorted[j].Decl.Pos())
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})

	// Second pass: edges. One edge per (caller, callee) pair, at the
	// first call site, keeping chains deterministic.
	for _, node := range g.Sorted {
		seen := make(map[*types.Func]bool)
		info := node.Pkg.Info
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := CalleeFunc(info, call)
			if callee == nil || seen[callee] {
				return true
			}
			target, ok := g.Nodes[callee]
			if !ok {
				return true // outside the loaded module (stdlib etc.)
			}
			seen[callee] = true
			node.Out = append(node.Out, Edge{Caller: node, Callee: target, Pos: call.Pos()})
			return true
		})
	}
	for _, node := range g.Sorted {
		for i := range node.Out {
			e := node.Out[i]
			e.Callee.In = append(e.Callee.In, e)
		}
	}
	for _, node := range g.Sorted {
		in := node.In
		sort.Slice(in, func(i, j int) bool {
			a, b := fset.Position(in[i].Pos), fset.Position(in[j].Pos)
			if a.Filename != b.Filename {
				return a.Filename < b.Filename
			}
			return a.Offset < b.Offset
		})
	}
	return g
}

// CalleeFunc statically resolves a call expression to the declared
// function or concrete method it invokes (nil for dynamic calls,
// conversions and builtins).
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() != types.MethodVal {
				return nil
			}
			if f, ok := sel.Obj().(*types.Func); ok {
				// Interface dispatch is dynamic; no static callee.
				if isInterfaceRecv(f) {
					return nil
				}
				return f
			}
			return nil
		}
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f // qualified package function
		}
	}
	return nil
}

func isInterfaceRecv(f *types.Func) bool {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type())
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
