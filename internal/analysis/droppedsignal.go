package analysis

import (
	"go/ast"
	"go/types"
)

// DroppedSignal is the lostcancel analogue for asynchronous copy
// engines. Machine.CopyH2D/CopyD2H/NVMeRead/NVMeWrite/NetSend,
// Stream.Launch and Resource/Pool.SubmitAfter all return a *sim.Signal
// that is the ONLY handle on the scheduled work's completion. A call
// whose signal is dropped on the floor still simulates the transfer —
// the time is spent, utilization moves — but nothing downstream can
// depend on it, so the offload schedule silently loses a dependency
// edge: a prefetch that should have waited for an eviction no longer
// does, and every capacity and throughput figure derived from the run
// is quietly wrong. The signal must be used as a dependency, waited on,
// returned, stored, or — when the completion genuinely does not matter,
// e.g. a fire-and-forget statistics copy — explicitly discarded with
// `_ =`.
var DroppedSignal = &Analyzer{
	Name: "droppedsignal",
	Doc:  "forbid dropping a *sim.Signal returned by an async-copy or kernel-launch call",
	Run:  runDroppedSignal,
}

func runDroppedSignal(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var call *ast.CallExpr
			switch n := n.(type) {
			case *ast.ExprStmt:
				call, _ = n.X.(*ast.CallExpr)
			case *ast.DeferStmt:
				call = n.Call
			}
			if call == nil {
				return true
			}
			tv, ok := pass.Info.Types[call]
			if !ok || !isSignalPtr(tv.Type) {
				return true
			}
			pass.Reportf(call.Pos(),
				"result *sim.Signal dropped: the dependency edge vanishes from the schedule; chain it, Wait on it, store it, or discard explicitly with _ =")
			return true
		})
	}
}

// isSignalPtr reports whether t is *sim.Signal.
func isSignalPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	return ok && namedIn(named, simPkgSuffix, "Signal")
}
