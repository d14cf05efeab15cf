package core

import (
	"fmt"

	"stronghold/internal/fault"
	"stronghold/internal/perf"
	"stronghold/internal/plan"
	"stronghold/internal/sim"
	"stronghold/internal/trace"
)

// RunPlan validates and lowers (plan.Prepare) one explicit-duration
// plan — a baseline method's iteration, every op carrying its DurNS —
// and runs it on a fresh hw.Machine through the environment
// STRONGHOLD's own plans use, with every §III-E optimization off: one
// CPU optimizer worker and no device buffer pool. Compute and GPU optimizer ops run on one FIFO queue per
// plan queue (traced as "gpu", "host", then "q2", ...), each op after
// its queue's previous op in plan order, as plan.Prepare proves, and
// on a fresh plan.State; copies take the PCIe queues. Setup and result
// assembly are Engine.Run's (setup, finish): under faults a dropped
// copy is reissued with backoff, and retries and deadline misses are
// counted, exactly as in STRONGHOLD's degraded mode. The result's
// IterTime is the plan's makespan. tr, when non-nil, receives the op
// spans and, under faults, the retries, deadline misses and injected
// fault windows; the result is the same either way.
func RunPlan(m perf.Model, it *plan.Iteration, tr *trace.Trace, faults *fault.Plan) perf.IterationResult {
	var res perf.IterationResult
	c, err := plan.Prepare(it)
	if err != nil {
		res.OOM, res.OOMDetail = true, err.Error()
		return res
	}
	r, err := (&Engine{Model: m, Faults: faults}).setup(tr)
	if err != nil {
		res.OOM, res.OOMDetail = true, err.Error()
		return res
	}
	r.timed = true
	eng := r.machine.Eng
	for q := 0; q < it.Queues; q++ {
		name := fmt.Sprintf("q%d", q)
		switch q {
		case 0:
			name = "gpu"
		case 1:
			name = "host"
		}
		r.queues = append(r.queues, sim.NewResource(eng, name))
	}
	x := plan.Execute(c, eng, &r.st, &schedEnv{r: r})
	eng.Run()
	res.IterTime = eng.Now()
	res.PlanOps = uint64(len(it.Ops))
	r.finish(&res, tr, []*plan.Run{x}, nil)
	return res
}
