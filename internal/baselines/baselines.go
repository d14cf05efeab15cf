// Package baselines implements the competing training systems the
// paper evaluates against (§V-C): Megatron-LM (resident GPU training),
// L2L (synchronous one-layer offloading), ZeRO-Offload (static
// CPU-optimizer offloading), ZeRO-Infinity (partitioned states on
// CPU RAM or NVMe) and the interleaved optimizer offloading of Deep
// Optimizer States. Every baseline is costed from the same perf.Model
// kernel/transfer numbers the STRONGHOLD engine uses, plus per-method
// software-stack constants calibrated in calib.go — the comparisons
// differ in *scheduling and stack overheads*, never in kernel speed.
// Dispatch goes through the modelcfg method registry: every method
// runs as a planner-emitted plan (planner.go, strategies.go) with
// explicit per-op durations, executed by core.RunPlan on the same
// environment and simulated machine as STRONGHOLD's plans, so it
// produces real traces, overlap fractions and utilizations, and
// degrades under fault plans. The closed-form cross-checks for the
// schedules live with the tests that use them (closedform_test.go).
package baselines

import (
	"fmt"

	"stronghold/internal/core"
	"stronghold/internal/modelcfg"
	"stronghold/internal/perf"
	"stronghold/internal/trace"
)

// Run simulates one steady-state training iteration of the given method
// and model, returning its timing or an OOM outcome. Supported methods
// are the single-GPU registry rows: those with Engine == EngineCore
// (STRONGHOLD, on its own or staging on NVMe) and with Engine ==
// EngineBaseline (Megatron, L2L, ZeROOffload, ZeROInfinity,
// ZeROInfinityNVMe, InterleavedOpt). ZeRO-2/3 are distributed-only;
// see the cluster package.
func Run(method modelcfg.Method, m perf.Model) perf.IterationResult {
	return RunWith(method, *core.NewEngine(m), nil)
}

// RunWith is the one call that runs a single-GPU simulation: method on
// the engine e describes, for core.SteadyIters iterations, with tr (when
// non-nil) receiving the execution spans. An EngineCore row runs e
// itself, staging on NVMe as the method says. For a baseline only
// e.Model and e.Faults apply: the method's footprint is checked against
// the platform, then its plan runs on core.RunPlan, degrading through
// the fault plan's stall/slow/drop windows (a dropped PCIe copy is
// reissued with backoff; the other resources have no reissue path, so
// their drops degrade to stalls). Only STRONGHOLD re-solves its window:
// baseline schedules are fixed.
func RunWith(method modelcfg.Method, e core.Engine, tr *trace.Trace) perf.IterationResult {
	info := modelcfg.Lookup(method)
	if info != nil && info.Engine == modelcfg.EngineCore {
		// Copying here, not on entry, keeps the engine off the heap on
		// the baseline path.
		ce := e
		ce.Feat.UseNVMe = info.NVMe
		return ce.Run(core.SteadyIters, tr)
	}
	m := e.Model
	res := perf.IterationResult{Method: method}
	if err := m.Cfg.Validate(); err != nil {
		res.OOM, res.OOMDetail = true, err.Error()
		return res
	}
	if info == nil || info.Engine != modelcfg.EngineBaseline {
		res.OOM = true
		res.OOMDetail = fmt.Sprintf("baselines: unsupported method %s", method)
		return res
	}
	fp := modelcfg.Footprint(method, m.Cfg, 0, 1)
	plat := m.Plat
	if !fp.Fits(plat.GPU.MemBytes, plat.CPU.UsableMemBytes, plat.NVMe.Bytes) {
		res.OOM = true
		res.OOMDetail = fmt.Sprintf("%s footprint gpu=%d host=%d disk=%d exceeds capacity",
			method, fp.GPU, fp.Host, fp.Disk)
		return res
	}
	pressure := pressurePenalty(float64(fp.GPU) / float64(plat.GPU.MemBytes))
	it, err := methodPlan(method, m, pressure)
	if err != nil {
		res.OOM, res.OOMDetail = true, err.Error()
		return res
	}
	res = core.RunPlan(m, it, tr, e.Faults)
	res.Method = method
	res.GPUPeak = fp.GPU
	return res
}
