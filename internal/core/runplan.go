package core

import (
	"fmt"

	"stronghold/internal/fault"
	"stronghold/internal/hw"
	"stronghold/internal/perf"
	"stronghold/internal/plan"
	"stronghold/internal/sim"
	"stronghold/internal/trace"
)

// RunPlan validates one explicit-duration plan — a baseline method's
// iteration, every op carrying its DurNS — and runs it on a fresh
// hw.Machine through the environment STRONGHOLD's own plans use, with
// every §III-E optimization off: one CPU optimizer worker and no device
// buffer pool. Compute and GPU optimizer ops run on one FIFO queue per
// plan queue (traced as "gpu", "host", then "q2", ...), each op after
// its queue's previous op in plan order, as plan.Validate assumes, and
// on a fresh plan.State; copies take the
// PCIe queues, and under faults a dropped copy is reissued with backoff
// exactly as in STRONGHOLD's degraded mode. The result's IterTime is
// the plan's makespan. tr, when non-nil, receives the spans, retries
// and deadline misses included; the result is the same either way.
func RunPlan(m perf.Model, it *plan.Iteration, tr *trace.Trace, faults *fault.Plan) perf.IterationResult {
	var res perf.IterationResult
	if err := plan.Validate(it); err != nil {
		res.OOM, res.OOMDetail = true, err.Error()
		return res
	}
	var inj *fault.Injector
	if !faults.Empty() {
		var err error
		if inj, err = fault.NewInjector(faults); err != nil {
			res.OOM, res.OOMDetail = true, err.Error()
			return res
		}
	}
	eng := sim.NewEngine()
	machine := hw.NewMachine(eng, m.Plat)
	r := &iterRun{e: &Engine{Model: m}, machine: machine, timed: true}
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
	if inj != nil {
		r.enableFaults(inj, tr, Profile{}, 0)
	}
	x := plan.Execute(plan.Compile(it.Ops), eng, &r.st, &schedEnv{r: r})
	eng.Run()
	if r.schedErr != nil {
		res.OOM, res.OOMDetail = true, r.schedErr.Error()
		return res
	}
	res.IterTime = eng.Now()
	res.Steps = eng.Steps()
	res.PlanOps = uint64(len(it.Ops))
	res.Retries = r.retries
	compute := 0.0
	if len(r.queues) > 0 {
		compute = r.queues[0].Utilization()
	}
	res.Util = utilization(machine, compute)
	res.Overlap = overlap([]*plan.Run{x})
	if tr != nil {
		r.addSpans(tr, []*plan.Run{x})
	}
	return res
}

// utilization reads the machine's end-of-run busy fractions; compute is
// the busy fraction of whatever ran the kernels.
func utilization(m *hw.Machine, compute float64) perf.ResourceUtil {
	return perf.ResourceUtil{
		Compute: compute,
		H2D:     m.H2D.Utilization(),
		D2H:     m.D2H.Utilization(),
		CPU:     m.CPUPool.Utilization(),
		NVMe:    m.NVMeQ.Utilization(),
		NIC:     m.NIC.Utilization(),
	}
}
