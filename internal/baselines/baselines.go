// Package baselines implements the competing training systems the
// paper evaluates against (§V-C): Megatron-LM (resident GPU training),
// L2L (synchronous one-layer offloading), ZeRO-Offload (static
// CPU-optimizer offloading), ZeRO-Infinity (partitioned states on
// CPU RAM or NVMe) and the interleaved optimizer offloading of Deep
// Optimizer States. Every baseline is costed from the same perf.Model
// kernel/transfer numbers the STRONGHOLD engine uses, plus per-method
// software-stack constants calibrated in calib.go — the comparisons
// differ in *scheduling and stack overheads*, never in kernel speed.
// Dispatch goes through the modelcfg method registry: every
// plan-driven method runs as a planner-emitted plan (planner.go,
// strategies.go) on the shared plan executor over explicit-duration
// resources (planrun.go), so it produces real traces, overlap
// fractions and degrades under fault plans; Megatron remains a closed
// form. The closed-form cross-checks for the plan-driven schedules
// live with the tests that use them (closedform_test.go).
package baselines

import (
	"fmt"

	"stronghold/internal/modelcfg"
	"stronghold/internal/perf"
	"stronghold/internal/sim"
)

// Run simulates one steady-state training iteration of the given method
// and model, returning its timing or an OOM outcome. Supported methods
// are the registry rows with Engine == EngineBaseline: Megatron, L2L,
// ZeROOffload, ZeROInfinity, ZeROInfinityNVMe, InterleavedOpt.
// (ZeRO-2/3 are distributed-only; see the cluster package.)
func Run(method modelcfg.Method, m perf.Model) perf.IterationResult {
	return RunWith(method, m, Options{})
}

// RunWith is Run with tracing and fault injection. Plan-driven methods
// (every baseline except Megatron) run as planner-emitted plans on the
// shared executor — event-driven, with real traces and overlap;
// Megatron remains a closed-form schedule, for which Options is inert.
func RunWith(method modelcfg.Method, m perf.Model, opts Options) perf.IterationResult {
	res := perf.IterationResult{Method: method}
	if err := m.Cfg.Validate(); err != nil {
		res.OOM, res.OOMDetail = true, err.Error()
		return res
	}
	info := modelcfg.Lookup(method)
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
	res.GPUPeak = fp.GPU
	pressure := pressurePenalty(float64(fp.GPU) / float64(plat.GPU.MemBytes))

	if !info.PlanDriven {
		res.IterTime = megatronIter(m)
		return res
	}
	it, err := methodPlan(method, m, pressure)
	if err != nil {
		res.OOM, res.OOMDetail = true, err.Error()
		return res
	}
	runPlanned(it, opts, &res)
	return res
}

// computeTotal is the pure-kernel time every method pays: all layers'
// FP+BP plus the embedding/head work and the GPU-side norm of the loss.
func computeTotal(m perf.Model) sim.Time {
	lt := m.Layer()
	n := sim.Time(m.Cfg.Layers)
	return n*(lt.FP+lt.BP) + 3*m.EmbeddingTime()
}

// megatronIter: everything resident; the only non-kernel cost is the
// on-GPU optimizer sweep.
func megatronIter(m perf.Model) sim.Time {
	lt := m.Layer()
	n := sim.Time(m.Cfg.Layers)
	gpuOptEmbed := sim.Time(float64(m.Cfg.EmbeddingParams()*28) / m.Plat.GPU.MemBandwidth * 1e9)
	return computeTotal(m) + n*lt.OptGPU + gpuOptEmbed
}
