package plan

import "stronghold/internal/sim"

// Env is the execution environment a plan runs against. The executor
// owns the walk order and every dependency wait; the environment owns
// the physics — how an op turns into simulated work. The core engine's
// environment maps ops onto hw.Machine streams, PCIe queues and the CPU
// optimizer pool, or, for explicit-duration plans, onto the machine's
// resources for each op's DurNS.
type Env interface {
	// Start runs op's work. The executor calls it once, after every
	// dependency of op has fired; the environment calls done exactly
	// once, when op completes. Join ops never reach Start.
	Start(op *Op, done func())
	// Resolve maps a cross-iteration dependency to the signal that
	// publishes it. Returning nil means the fact already holds.
	Resolve(d ExtDep) *sim.Signal
	// Export publishes op's completion signal as the op.Export fact
	// for op.Layer, for the next iteration (or patch) to Resolve.
	Export(op *Op, sig *sim.Signal)
	// Stream returns the in-order stream op is issued on, or nil when
	// op is ordered by its dependencies alone.
	Stream(op *Op) *Stream
}

// Stream is an in-order issue queue, the executor's half of a CUDA
// stream: an op issued on it starts only after the stream's previous op
// has completed. Its state outlives one Execute call — an iteration's
// first kernel waits on the previous iteration's last — so the
// environment owns it. The zero value is an idle stream.
type Stream struct{ last *sim.Signal }

// Last returns the completion signal of the op most recently issued on
// s, or nil when none has been.
func (s *Stream) Last() *sim.Signal { return s.last }

// Execute walks one iteration's plan in canonical order, wiring every
// op's dependencies on eng and handing it to env once they have fired.
// Issue order is ID order, which is what makes plan execution
// deterministic: two walks of the same plan register the same waits in
// the same order. It returns the per-op completion signals, indexed by
// op ID, so the caller can join on iteration-final ops.
func Execute(it *Iteration, eng *sim.Engine, env Env) []*sim.Signal {
	return executeOps(it.Ops, eng, env)
}

func executeOps(ops []Op, eng *sim.Engine, env Env) []*sim.Signal {
	sigs := make([]*sim.Signal, len(ops))
	for i := range ops {
		op := &ops[i]
		deps := make([]*sim.Signal, 0, len(op.Deps)+len(op.Ext)+1)
		for _, d := range op.Deps {
			deps = append(deps, sigs[d])
		}
		for _, x := range op.Ext {
			if s := env.Resolve(x); s != nil {
				deps = append(deps, s)
			}
		}
		stream := env.Stream(op)
		if stream != nil && stream.last != nil {
			deps = append(deps, stream.last)
		}
		var sig *sim.Signal
		if op.Kind == Join && len(deps) == 1 {
			// Alias the lone dependency: a fresh signal would wake the
			// join's waiters at the join's place in the dependency's
			// waiter list rather than their own, reordering equal-time
			// events.
			sig = deps[0]
		} else {
			sig = sim.NewSignal(eng)
			sim.WaitAll(eng, deps, func() {
				if op.Kind == Join {
					sig.Fire()
				} else {
					env.Start(op, sig.Fire)
				}
			})
		}
		if stream != nil {
			stream.last = sig
		}
		sigs[i] = sig
		if op.Export != 0 {
			env.Export(op, sig)
		}
	}
	return sigs
}
