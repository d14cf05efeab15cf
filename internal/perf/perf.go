// Package perf derives per-layer execution times from the analytic cost
// models in modelcfg and the hardware constants in hw. Both the
// STRONGHOLD engine and every baseline engine consume these numbers, so
// all methods are costed identically — the paper's comparisons are about
// *scheduling*, not about different kernel speeds.
package perf

import (
	"fmt"

	"stronghold/internal/hw"
	"stronghold/internal/modelcfg"
	"stronghold/internal/sim"
)

// LayerTimes holds the simulated durations of one Transformer layer's
// operations for a given config/platform/utilization — the t-values of
// the paper's §III-D notation.
type LayerTimes struct {
	FP     sim.Time // t_fp: forward kernel time
	BP     sim.Time // t_bp: backward incl. checkpoint recompute
	C2G    sim.Time // t_c2g: CPU→GPU weight prefetch
	G2C    sim.Time // t_g2c: GPU→CPU weight/grad offload
	OptGPU sim.Time // t_opt_gpu: on-GPU Adam for one layer
	// OptCPU is t_opt_cpu for a single CPU worker owning the whole
	// socket's bandwidth; the engine's CPU optimizer pool
	// (core's cpuOptDuration) also caps each worker's bandwidth.
	OptCPU sim.Time
	Async  sim.Time // t_async: one asynchronous call's overhead
}

// Model bundles a config, platform and kernel utilization and produces
// LayerTimes and whole-model aggregates.
type Model struct {
	Cfg  modelcfg.Config
	Plat hw.Platform
	// Utilization is the SM fraction one worker's kernels occupy; zero
	// means derive from batch size via modelcfg.KernelUtilization.
	Utilization float64
	// Checkpointing enables activation checkpointing (the paper's
	// evaluation default, §V-D).
	Checkpointing bool
}

// NewModel builds a performance model with the paper's defaults
// (checkpointing on, utilization from batch size).
func NewModel(cfg modelcfg.Config, plat hw.Platform) Model {
	return Model{Cfg: cfg, Plat: plat, Checkpointing: true}
}

// EffectiveUtilization returns the SM utilization used for kernels.
func (m Model) EffectiveUtilization() float64 {
	if m.Utilization > 0 {
		return m.Utilization
	}
	return modelcfg.KernelUtilization(m.Cfg.BatchSize)
}

// Layer returns the per-layer durations.
func (m Model) Layer() LayerTimes {
	util := m.EffectiveUtilization()
	rate := util * m.Plat.GPU.PeakFlops
	fp := sim.Time(m.Cfg.ForwardFlopsPerLayer() / rate * 1e9)
	bp := sim.Time(m.Cfg.BackwardFlopsPerLayer(m.Checkpointing) / rate * 1e9)
	weight := m.Cfg.LayerWeightBytes()
	optBytes := float64(m.Cfg.LayerParamsShard() * modelcfg.BytesAdamTraffic)
	return LayerTimes{
		FP:     fp + sim.Time(m.Plat.KernelLaunchNS),
		BP:     bp + sim.Time(m.Plat.KernelLaunchNS),
		C2G:    m.Plat.PCIe.CopyTime(weight, true),
		G2C:    m.Plat.PCIe.CopyTime(weight, true), // gradients are the same size as weights
		OptGPU: sim.Time(optBytes / m.Plat.GPU.MemBandwidth * 1e9),
		OptCPU: sim.Time(optBytes / m.Plat.CPU.MemBandwidth * 1e9),
		Async:  sim.Time(m.Plat.AsyncCallNS),
	}
}

// EmbeddingTime returns the forward (and, doubled, backward) time of the
// resident embedding/head computation.
func (m Model) EmbeddingTime() sim.Time {
	rate := m.EffectiveUtilization() * m.Plat.GPU.PeakFlops
	return sim.Time(m.Cfg.EmbeddingFlops() / rate * 1e9)
}

// IterationResult is what every training engine returns for one
// simulated training iteration.
type IterationResult struct {
	Method    modelcfg.Method
	IterTime  sim.Time
	GPUPeak   int64   // peak device bytes
	Overlap   float64 // fraction of transfer time hidden under compute
	OOM       bool    // iteration impossible: memory exhausted
	OOMDetail string
	// AllocOps counts raw device-allocation operations performed over
	// the whole run — the §III-E3 quantity ((m+1)·k one-off for the
	// user-level pool vs. ongoing churn for the caching allocator).
	AllocOps uint64
	// CacheFlushes counts allocator-exhaustion flush events (caching
	// mode only) — the thrash near device capacity.
	CacheFlushes uint64
	// CacheOps counts caching-allocator interactions (hits + misses):
	// the ongoing per-layer-visit bookkeeping traffic that the
	// user-level pool eliminates.
	CacheOps uint64
	// Steps is the number of discrete events the simulation executed —
	// a determinism fingerprint: two runs of the same configuration
	// must report identical counts.
	Steps uint64
	// Retries counts transfers reissued after hitting an injected
	// blackout window (degraded-mode scheduling; zero without faults).
	Retries uint64
	// DeadlineMisses counts transfers whose observed completion exceeded
	// the per-copy deadline derived from the analytical model.
	DeadlineMisses uint64
	// WindowResolves counts mid-run adaptive re-solves that changed the
	// working window m.
	WindowResolves uint64
	// FinalWindow is the working-window size at the end of the run
	// (equal to the initial window unless an adaptive re-solve moved it;
	// zero for engines without a window).
	FinalWindow int
	// Streams is the multi-stream worker count k the run trained with
	// (§IV-A; zero for engines without the optimization).
	Streams int
	// PlanOps is the length of the validated schedule IR one iteration
	// executes (zero for engines that do not run on plans yet).
	PlanOps uint64
	// OptGPUFrac is the co-optimized GPU share of each offloaded
	// layer's optimizer update (zero under the fixed all-CPU placement
	// or when co-optimization is off).
	OptGPUFrac float64
	// Util holds end-of-run busy fractions per simulated resource. It is
	// derived from counters the engine maintains unconditionally, so it
	// is populated whether or not a metrics collector is installed.
	Util ResourceUtil
	// MetricSamples counts timeline points the installed metrics
	// collector recorded (zero with metrics off) — a cheap determinism
	// fingerprint for the metrics subsystem itself.
	MetricSamples uint64
}

// ResourceUtil is the per-resource busy fraction over a whole run:
// busy virtual time divided by elapsed virtual time (SM-capacity
// fraction for Compute, mean across workers for CPU). A plain
// comparable struct so IterationResult stays usable with ==.
type ResourceUtil struct {
	Compute float64
	H2D     float64
	D2H     float64
	CPU     float64
	NVMe    float64
}

// Throughput returns training samples processed per second for the
// configured batch (with workers-way micro-batching the batch is still
// processed once per iteration).
func (r IterationResult) Throughput(batchSize int) float64 {
	if r.OOM || r.IterTime <= 0 {
		return 0
	}
	return float64(batchSize) / sim.Seconds(r.IterTime)
}

// TFLOPS returns achieved FLOP/s (in 1e12 units) given total iteration
// FLOPs.
func (r IterationResult) TFLOPS(totalFlops float64) float64 {
	if r.OOM || r.IterTime <= 0 {
		return 0
	}
	return totalFlops / sim.Seconds(r.IterTime) / 1e12
}

// TotalFlops returns the FLOPs of one full training iteration of the
// model (FP + BP with checkpointing across all layers and the
// embedding/head).
func (m Model) TotalFlops() float64 {
	perLayer := m.Cfg.ForwardFlopsPerLayer() + m.Cfg.BackwardFlopsPerLayer(m.Checkpointing)
	return float64(m.Cfg.Layers)*perLayer + 3*m.Cfg.EmbeddingFlops()
}

// String renders the layer times for diagnostics.
func (t LayerTimes) String() string {
	return fmt.Sprintf("fp=%.2fms bp=%.2fms c2g=%.2fms g2c=%.2fms optGPU=%.3fms optCPU=%.2fms",
		float64(t.FP)/1e6, float64(t.BP)/1e6, float64(t.C2G)/1e6,
		float64(t.G2C)/1e6, float64(t.OptGPU)/1e6, float64(t.OptCPU)/1e6)
}
