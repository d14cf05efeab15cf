package stronghold

import (
	"fmt"

	"stronghold/internal/baselines"
	"stronghold/internal/cluster"
	"stronghold/internal/core"
	"stronghold/internal/fault"
	"stronghold/internal/hw"
	"stronghold/internal/modelcfg"
	"stronghold/internal/perf"
	"stronghold/internal/sim"
	"stronghold/internal/trace"
)

// Method selects a training system in the simulation API.
type Method = modelcfg.Method

// Re-exported method constants (§V-C's comparison set plus the ported
// strategy-layer methods).
const (
	Megatron         = modelcfg.Megatron
	L2L              = modelcfg.L2L
	ZeROOffload      = modelcfg.ZeROOffload
	ZeROInfinity     = modelcfg.ZeROInfinity
	ZeROInfinityNVMe = modelcfg.ZeROInfinityNVMe
	InterleavedOpt   = modelcfg.InterleavedOpt
	Stronghold       = modelcfg.Stronghold
	StrongholdNVMe   = modelcfg.StrongholdNVMe
	ZeRO2            = modelcfg.ZeRO2
	ZeRO3            = modelcfg.ZeRO3
)

// Platform selects an evaluation platform (§V-A).
type Platform int

const (
	// V100 is the single-node 32 GB V100 server.
	V100 Platform = iota
	// A10Cluster is the 8-node 24 GB A10 cluster.
	A10Cluster
)

func (p Platform) spec() (hw.Platform, error) {
	switch p {
	case V100:
		return hw.V100Platform(), nil
	case A10Cluster:
		return hw.A10ClusterPlatform(), nil
	}
	return hw.Platform{}, fmt.Errorf("stronghold: unknown platform %d", int(p))
}

// SimConfig describes one simulated training setup at paper scale.
type SimConfig struct {
	// Model shape: either set SizeBillions (layers derived at the given
	// Hidden) or Layers directly.
	SizeBillions float64
	Layers       int
	Hidden       int // default 2560
	BatchSize    int // per GPU; default 4
	Platform     Platform
	Method       Method
	// Window is the STRONGHOLD working-window size; 0 solves it
	// analytically (§III-D).
	Window int
	// CoOpt lets the solver co-optimize the window size together with a
	// fractional GPU/CPU optimizer placement over the method's declared
	// decision variables (STRONGHOLD methods only; the fixed all-CPU
	// placement is kept wherever the split does not clearly win, and
	// under fault plans).
	CoOpt bool
	// Streams is the multi-stream worker count; 0 = auto (§IV-A).
	Streams int
	// ModelParallel shards layers across GPUs (Table I's MP column).
	ModelParallel int
	// TransferJitter adds deterministic multiplicative jitter (up to 2x
	// the fraction) to every PCIe transfer — for robustness studies of
	// how the window absorbs variability (STRONGHOLD methods only).
	TransferJitter float64
	// LayerScale, when non-nil (length = Layers), scales each layer's
	// compute and transfer volume — heterogeneous models (§III-B).
	LayerScale []float64
	// Faults, when non-empty, injects a deterministic fault plan into
	// the run (plan-driven methods only) — e.g.
	// "seed=7;h2d:slow(at=0s,dur=1s,every=1s,factor=0.2)". See
	// internal/fault for the plan grammar. STRONGHOLD methods enter
	// degraded mode: transfers stretch through fault windows, blackouts
	// retry with backoff, and the working window re-solves from observed
	// transfer drift. Plan-driven baselines degrade their resources
	// without a reissue path — the comparison point.
	Faults string
	// DisableAdapt freezes the working window at its initial size under
	// faults — the ablation arm that isolates what the adaptive
	// re-solve contributes. No effect without Faults.
	DisableAdapt bool
}

func (c SimConfig) resolve() (modelcfg.Config, hw.Platform, error) {
	plat, err := c.Platform.spec()
	if err != nil {
		return modelcfg.Config{}, hw.Platform{}, err
	}
	spec := modelcfg.ConfigSpec{
		SizeBillions:  c.SizeBillions,
		Layers:        c.Layers,
		Hidden:        c.Hidden,
		BatchSize:     c.BatchSize,
		ModelParallel: c.ModelParallel,
	}
	cfg, err := spec.Resolve()
	if err != nil {
		return modelcfg.Config{}, hw.Platform{}, fmt.Errorf("stronghold: %w", err)
	}
	return cfg, plat, nil
}

// SimResult reports one simulated steady-state training iteration.
type SimResult struct {
	Method        Method
	ModelBillions float64
	IterSeconds   float64
	SamplesPerSec float64
	TFLOPS        float64
	GPUPeakGB     float64
	// Overlap is the fraction of CPU-GPU transfer time hidden under
	// compute (plan-driven methods only).
	Overlap float64
	// OptGPUFrac is the co-optimized GPU share of each offloaded
	// layer's optimizer update (zero unless CoOpt engaged the split).
	OptGPUFrac float64
	OOM        bool
	Detail     string
	// Degraded-mode counters, all zero without a fault plan.
	Retries        uint64 // transfer reissues after blackout windows
	DeadlineMisses uint64 // transfers past DeadlineFactor× their nominal time
	WindowResolves uint64 // adaptive window re-solves triggered mid-run
	FinalWindow    int    // working window after the last re-solve
}

// Simulate runs one steady-state iteration of the configured method.
func Simulate(c SimConfig) (SimResult, error) {
	cfg, plat, err := c.resolve()
	if err != nil {
		return SimResult{}, err
	}
	info := modelcfg.Lookup(c.Method)
	if info == nil {
		return SimResult{}, fmt.Errorf("stronghold: unknown method %v", c.Method)
	}
	if c.Faults != "" && !info.PlanDriven {
		return SimResult{}, fmt.Errorf("stronghold: fault injection requires a plan-driven method, got %v", c.Method)
	}
	m := perf.NewModel(cfg, plat)
	var r perf.IterationResult
	var tr *trace.Trace
	switch info.Engine {
	case modelcfg.EngineCore:
		e := core.NewEngine(m)
		e.Window = c.Window
		if c.Streams > 0 {
			e.Feat.Streams = c.Streams
		}
		e.Feat.UseNVMe = info.NVMe
		e.CoOpt = c.CoOpt
		e.TransferJitter = c.TransferJitter
		e.LayerScale = c.LayerScale
		if c.Faults != "" {
			plan, err := fault.ParsePlan(c.Faults)
			if err != nil {
				return SimResult{}, fmt.Errorf("stronghold: fault plan: %w", err)
			}
			e.Faults = plan
			e.Adapt.DisableResolve = c.DisableAdapt
		}
		tr = trace.New()
		r = e.Run(3, tr)
	case modelcfg.EngineCluster:
		r = cluster.Run(cluster.Setup{Plat: plat, Cfg: cfg, Method: c.Method, HeteroCollectives: true})
	default:
		var opts baselines.Options
		if c.Faults != "" {
			plan, err := fault.ParsePlan(c.Faults)
			if err != nil {
				return SimResult{}, fmt.Errorf("stronghold: fault plan: %w", err)
			}
			opts.Faults = plan
		}
		r = baselines.RunWith(c.Method, m, opts)
	}
	out := SimResult{
		Method:        c.Method,
		ModelBillions: cfg.ParamsBillion(),
		OOM:           r.OOM,
		Detail:        r.OOMDetail,
	}
	if !r.OOM {
		out.IterSeconds = sim.Seconds(r.IterTime)
		out.SamplesPerSec = r.Throughput(cfg.BatchSize)
		out.TFLOPS = r.TFLOPS(m.TotalFlops())
		out.GPUPeakGB = float64(r.GPUPeak) / float64(hw.GB)
		out.Overlap = r.Overlap
		out.OptGPUFrac = r.OptGPUFrac
		out.Retries = r.Retries
		out.DeadlineMisses = r.DeadlineMisses
		out.WindowResolves = r.WindowResolves
		out.FinalWindow = r.FinalWindow
	}
	return out, nil
}

// MaxTrainableBillions returns the largest model (in billions of
// parameters) the method can train on the platform, sweeping the §V-B
// configuration family — the Figure 6 experiment for one method.
func MaxTrainableBillions(method Method, platform Platform) (float64, error) {
	plat, err := platform.spec()
	if err != nil {
		return 0, err
	}
	mp := plat.Nodes
	best := 0.0
	for _, h := range []int{2560, 4096, 5120} {
		for _, bs := range []int{2, 4} {
			b := modelcfg.LargestTrainable(method, h, mp, []int{bs}, 8,
				plat.GPU.MemBytes, plat.CPU.UsableMemBytes, plat.NVMe.Bytes)
			if b > best {
				best = b
			}
		}
	}
	return best, nil
}

// CommVolumeRatio evaluates the §III-F closed-form traffic model:
// V_mp/V_dp for converting ways-way model parallelism into ways-way
// data parallelism on an n-layer, hidden-wide Transformer at the given
// per-GPU batch size. Values above 1 mean data parallelism moves less
// data.
func CommVolumeRatio(layers, hidden, batchSize, ways int) float64 {
	cfg := modelcfg.NewConfig(layers, hidden, 16)
	cfg.BatchSize = batchSize
	return modelcfg.VolumeRatio(cfg, ways)
}

// WindowPlan is the analytical model's output for a configuration.
type WindowPlan struct {
	Window        int  // chosen m
	MForward      int  // P1 minimum
	MBackward     int  // P2 minimum
	MOptimizer    int  // Eq. 3 minimum
	MemoryBound   bool // clamped by S_avail
	AsyncFeasible bool // Eq. 5
	Streams       int  // §IV-A worker count the warm-up would pick
	// OptGPUFrac is the co-optimized GPU share of each offloaded
	// layer's optimizer update (zero unless CoOpt engaged the split —
	// see SimConfig.CoOpt).
	OptGPUFrac float64
}

// PlanWindow runs warm-up profiling plus the §III-D analytical model
// and returns the working-window decision without simulating training.
// With CoOpt set, the solver additionally sweeps the method's declared
// decision variables (window size × fractional optimizer placement)
// and reports the chosen split in OptGPUFrac.
func PlanWindow(c SimConfig) (WindowPlan, error) {
	cfg, plat, err := c.resolve()
	if err != nil {
		return WindowPlan{}, err
	}
	e := core.NewEngine(perf.NewModel(cfg, plat))
	if info := modelcfg.Lookup(c.Method); info != nil && info.Engine == modelcfg.EngineCore {
		e.Feat.UseNVMe = info.NVMe
	}
	e.CoOpt = c.CoOpt
	d, err := e.SolvedDecision()
	if err != nil {
		return WindowPlan{}, err
	}
	return WindowPlan{
		Window: d.M, MForward: d.MFP, MBackward: d.MBP, MOptimizer: d.MOpt,
		MemoryBound: d.MemoryBound, AsyncFeasible: d.AsyncFeasible,
		Streams:    e.PickStreams(d.M),
		OptGPUFrac: d.OptGPUFrac,
	}, nil
}
