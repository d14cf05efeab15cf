package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// BufDiscipline enforces the user-level buffer-management discipline of
// §III-E: a *mem.Block obtained from CachingAllocator.Get or
// Arena.Alloc reserves arena bytes that nothing reclaims
// automatically — the simulator has no garbage collector standing in
// for cudaFree. On any function-local path the block must be returned
// to its allocator (Put/Release), escape the function (returned,
// stored in a field, slice or map, or passed onward), or the arena
// model leaks and every capacity figure computed from it drifts. This
// is exactly the leak class the paper's reserved round-robin pool
// exists to prevent; the analyzer keeps the simulation honest about it.
var BufDiscipline = &Analyzer{
	Name: "bufdiscipline",
	Doc:  "require allocator blocks to be released or to escape on function-local paths",
	Run:  runBufDiscipline,
}

func runBufDiscipline(pass *Pass) {
	for _, f := range pass.Files {
		parents := buildParents(f)
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkBufFunc(pass, fn, parents)
		}
	}
}

// isAllocCall reports whether call allocates a *mem.Block, returning a
// label like "Arena.Alloc" when it does.
func isAllocCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	named, method := methodCallee(pass, call)
	switch {
	case namedIn(named, memPkgSuffix, "CachingAllocator") && method == "Get":
		return "CachingAllocator.Get", true
	case namedIn(named, memPkgSuffix, "Arena") && method == "Alloc":
		return "Arena.Alloc", true
	}
	return "", false
}

func checkBufFunc(pass *Pass, fn *ast.FuncDecl, parents map[ast.Node]ast.Node) {
	// One tracked allocation: the local variable holding the block and
	// the call that produced it.
	type tracked struct {
		obj   *types.Var
		call  *ast.CallExpr
		label string
	}
	var locals []tracked

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		label, ok := isAllocCall(pass, call)
		if !ok {
			return true
		}
		switch parent := parents[call].(type) {
		case *ast.ExprStmt:
			pass.Reportf(call.Pos(), "block from %s is dropped: the arena bytes stay reserved with no handle to release them", label)
		case *ast.AssignStmt:
			lhs := blockLHS(parent, call)
			if lhs == nil {
				return true
			}
			if id, ok := lhs.(*ast.Ident); ok {
				if id.Name == "_" {
					pass.Reportf(call.Pos(), "block from %s assigned to _: the arena bytes leak; release it or keep the handle", label)
					return true
				}
				if obj, ok := objOf(pass, id).(*types.Var); ok {
					locals = append(locals, tracked{obj: obj, call: call, label: label})
				}
			}
			// Non-ident LHS (field, index): the block escapes.
		}
		return true
	})

	for _, t := range locals {
		if !blockEscapes(pass, fn.Body, t.obj, parents) {
			pass.Reportf(t.call.Pos(),
				"block from %s is never released or stored: call Put/Release on every local path or let the block escape", t.label)
		}
	}
}

// blockLHS returns the left-hand expression receiving the *mem.Block
// result of call within assign (nil when it cannot be determined).
func blockLHS(assign *ast.AssignStmt, call *ast.CallExpr) ast.Expr {
	if len(assign.Rhs) == 1 {
		// b, err := a.Alloc(n): the block is always the first result.
		if assign.Rhs[0] == ast.Expr(call) && len(assign.Lhs) >= 1 {
			return assign.Lhs[0]
		}
		return nil
	}
	for i, r := range assign.Rhs {
		if r == ast.Expr(call) && i < len(assign.Lhs) {
			return assign.Lhs[i]
		}
	}
	return nil
}

// objOf resolves an identifier to its object via Defs then Uses.
func objOf(pass *Pass, id *ast.Ident) types.Object {
	if obj := pass.Info.Defs[id]; obj != nil {
		return obj
	}
	return pass.Info.Uses[id]
}

// blockEscapes reports whether any use of obj inside body releases the
// block or lets it escape: passed as a call argument (Put, Release, or
// any other function), returned, stored through an assignment's RHS, or
// placed in a composite literal. Plain reads — method calls on the
// block, field accesses, comparisons — do not count.
func blockEscapes(pass *Pass, body *ast.BlockStmt, obj *types.Var, parents map[ast.Node]ast.Node) bool {
	return blockEscapesInfo(pass.Info, body, obj, parents)
}

// blockEscapesInfo is blockEscapes for callers holding only the type
// info (the module-wide allocation classifier shares the walk).
func blockEscapesInfo(info *types.Info, body *ast.BlockStmt, obj *types.Var, parents map[ast.Node]ast.Node) bool {
	escapes := false
	ast.Inspect(body, func(n ast.Node) bool {
		if escapes {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok || info.Uses[id] != types.Object(obj) {
			return true
		}
		if identEscapes(id, parents) {
			escapes = true
			return false
		}
		return true
	})
	return escapes
}

// identEscapes climbs the ancestor chain of one use of the tracked
// identifier and classifies it.
func identEscapes(id *ast.Ident, parents map[ast.Node]ast.Node) bool {
	var child ast.Node = id
	for p := parents[child]; p != nil; child, p = p, parents[p] {
		switch pp := p.(type) {
		case *ast.SelectorExpr:
			if pp.X == child {
				return false // b.Free(), b.Size(): a read of b, not an escape
			}
		case *ast.CallExpr:
			if pp.Fun != ast.Node(child) {
				return true // argument position: released or handed off
			}
		case *ast.ReturnStmt:
			return true
		case *ast.CompositeLit, *ast.KeyValueExpr:
			return true
		case *ast.AssignStmt:
			for _, r := range pp.Rhs {
				if r == child {
					return true // stored somewhere else
				}
			}
			return false // LHS reassignment
		case *ast.UnaryExpr:
			if pp.Op != token.AND {
				return false
			}
			// &b: keep climbing to see where the pointer goes.
		case *ast.ParenExpr:
			// keep climbing
		case ast.Stmt:
			return false // any other statement context is a read
		}
	}
	return false
}

// buildParents records each node's immediate parent for one file.
func buildParents(f *ast.File) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}
