package plan

import "stronghold/internal/sim"

// Env is the execution environment a plan runs against. The executor
// owns the walk order and the dependency wiring; the environment owns
// the physics — how an op turns into simulated work. The core engine's
// environment maps ops onto hw.Machine streams, PCIe queues and the CPU
// optimizer pool, or, for explicit-duration plans, onto the machine's
// resources for each op's DurNS. Issue is called exactly once per op,
// in canonical (ID) order, which is what makes plan execution
// deterministic: two walks of the same plan produce identical
// Submit/Schedule sequences.
type Env interface {
	// Issue starts op once every signal in deps has fired and returns
	// the op's completion signal. deps holds the already-created
	// signals of op.Deps plus the resolved op.Ext entries, in that
	// order, with satisfied (nil) dependencies elided. A nil return
	// means the op completes immediately and nothing may wait on it.
	Issue(op *Op, deps []*sim.Signal) *sim.Signal
	// Resolve maps a cross-iteration dependency to the signal that
	// publishes it. Returning nil means the fact already holds.
	Resolve(d ExtDep) *sim.Signal
	// Export publishes op's completion signal as the op.Export fact
	// for op.Layer, for the next iteration (or patch) to Resolve.
	Export(op *Op, sig *sim.Signal)
}

// Execute walks one iteration's plan in canonical order and issues
// every op through env. It returns the per-op completion signals,
// indexed by op ID, so the caller can join on iteration-final ops.
func Execute(it *Iteration, env Env) []*sim.Signal {
	return executeOps(it.Ops, env)
}

func executeOps(ops []Op, env Env) []*sim.Signal {
	sigs := make([]*sim.Signal, len(ops))
	for i := range ops {
		op := &ops[i]
		deps := make([]*sim.Signal, 0, len(op.Deps)+len(op.Ext))
		for _, d := range op.Deps {
			if s := sigs[d]; s != nil {
				deps = append(deps, s)
			}
		}
		for _, x := range op.Ext {
			if s := env.Resolve(x); s != nil {
				deps = append(deps, s)
			}
		}
		sig := env.Issue(op, deps)
		sigs[i] = sig
		if op.Export != 0 {
			env.Export(op, sig)
		}
	}
	return sigs
}
