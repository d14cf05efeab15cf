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
	"stronghold/internal/fault"
	"stronghold/internal/modelcfg"
	"stronghold/internal/perf"
	"stronghold/internal/trace"
)

// Options configures a single-GPU simulation beyond the defaults.
type Options struct {
	// Trace, when non-nil, receives the execution spans of the simulated
	// iteration.
	Trace *trace.Trace
	// Faults, when non-nil, degrades the method's resources with the
	// injected stall/slow/drop windows. A dropped PCIe copy is reissued
	// with backoff, as in STRONGHOLD's degraded mode; the other
	// resources have no reissue path, so their drops degrade to stalls.
	// Only STRONGHOLD re-solves its window: baseline schedules are
	// fixed.
	Faults *fault.Plan
}

// Run simulates one steady-state training iteration of the given method
// and model, returning its timing or an OOM outcome. Supported methods
// are the single-GPU registry rows: those with Engine == EngineCore
// (STRONGHOLD, on its own or staging on NVMe) and with Engine ==
// EngineBaseline (Megatron, L2L, ZeROOffload, ZeROInfinity,
// ZeROInfinityNVMe, InterleavedOpt). ZeRO-2/3 are distributed-only;
// see the cluster package.
func Run(method modelcfg.Method, m perf.Model) perf.IterationResult {
	return RunWith(method, m, Options{})
}

// RunWith is Run with tracing and fault injection. An EngineCore row
// runs core.Engine with default features for three iterations; for a
// baseline the method's footprint is checked against the platform,
// then its plan runs on core.RunPlan.
func RunWith(method modelcfg.Method, m perf.Model, opts Options) perf.IterationResult {
	info := modelcfg.Lookup(method)
	if info != nil && info.Engine == modelcfg.EngineCore {
		e := core.NewEngine(m)
		e.Feat.UseNVMe = info.NVMe
		e.Faults = opts.Faults
		return e.Run(3, opts.Trace)
	}
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
	res = core.RunPlan(m, it, opts.Trace, opts.Faults)
	res.Method = method
	res.GPUPeak = fp.GPU
	return res
}
