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
)

// Method selects a training system in the simulation API.
type Method = modelcfg.Method

// StreamsError is the error Simulate and PlanWindow return for a
// SimConfig.Streams that is negative or does not divide the batch.
type StreamsError = core.StreamsError

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
	// transfer drift. Plan-driven baselines degrade, retry and count
	// deadline misses the same way on their fixed schedules — the
	// comparison point.
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
	// Overlap is the fraction of PCIe and NVMe transfer time hidden
	// under compute kernels (plan-driven methods only).
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
	// Streams is the multi-stream worker count the run trained with
	// (§IV-A; STRONGHOLD methods only).
	Streams int
}

// engine lowers c onto the single-GPU engine it describes, the one
// Simulate and PlanWindow share: the resolved model on the platform,
// the window and stream pins, the STRONGHOLD knobs and the parsed fault
// plan. Baselines read only the model and the fault plan; a cluster
// method only the model.
func (c SimConfig) engine() (core.Engine, error) {
	cfg, plat, err := c.resolve()
	if err != nil {
		return core.Engine{}, err
	}
	info := modelcfg.Lookup(c.Method)
	if info == nil {
		return core.Engine{}, fmt.Errorf("stronghold: unknown method %v", c.Method)
	}
	if err := core.CheckStreams(c.Streams, cfg.BatchSize); err != nil {
		return core.Engine{}, fmt.Errorf("stronghold: %w", err)
	}
	var faults *fault.Plan
	if c.Faults != "" {
		if !info.PlanDriven() {
			return core.Engine{}, fmt.Errorf("stronghold: fault injection requires a plan-driven method, got %v", c.Method)
		}
		if faults, err = fault.ParsePlan(c.Faults); err != nil {
			return core.Engine{}, fmt.Errorf("stronghold: fault plan: %w", err)
		}
	}
	feat := core.DefaultFeatures()
	feat.Streams = c.Streams
	feat.UseNVMe = info.NVMe
	return core.Engine{
		Model:          perf.NewModel(cfg, plat),
		Window:         c.Window,
		Feat:           feat,
		CoOpt:          c.CoOpt,
		LayerScale:     c.LayerScale,
		TransferJitter: c.TransferJitter,
		Faults:         faults,
		DisableResolve: c.DisableAdapt,
	}, nil
}

// Simulate runs one steady-state iteration of the configured method.
func Simulate(c SimConfig) (SimResult, error) {
	e, err := c.engine()
	if err != nil {
		return SimResult{}, err
	}
	m, cfg := e.Model, e.Model.Cfg
	var r perf.IterationResult
	if modelcfg.Lookup(c.Method).Engine == modelcfg.EngineCluster {
		r = cluster.Run(cluster.Setup{Plat: m.Plat, Cfg: cfg, Method: c.Method, HeteroCollectives: true})
	} else {
		r = baselines.RunWith(c.Method, e, nil)
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
		out.Streams = r.Streams
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
	best := 0.0
	for _, h := range []int{2560, 4096, 5120} {
		b := modelcfg.LargestTrainable(method, h, plat.Nodes, []int{2, 4}, 8,
			plat.GPU.MemBytes, plat.CPU.UsableMemBytes, plat.NVMe.Bytes)
		if b > best {
			best = b
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
	Streams       int  // §IV-A worker count a run at Window uses (SimConfig.Streams when set)
	// OptGPUFrac is the co-optimized GPU share of each offloaded
	// layer's optimizer update (zero unless CoOpt engaged the split —
	// see SimConfig.CoOpt).
	OptGPUFrac float64
}

// PlanWindow runs warm-up profiling plus the §III-D analytical model
// and returns the working-window decision Simulate would run, without
// simulating training: Window and Streams are SimConfig's pins where
// set, the bounds are the solver's. With CoOpt set, the solver
// additionally sweeps the method's declared decision variables (window
// size × fractional optimizer placement) and reports the chosen split
// in OptGPUFrac. Only STRONGHOLD methods have a working window; any
// other method is an error.
func PlanWindow(c SimConfig) (WindowPlan, error) {
	e, err := c.engine()
	if err != nil {
		return WindowPlan{}, err
	}
	if modelcfg.Lookup(c.Method).Engine != modelcfg.EngineCore {
		return WindowPlan{}, fmt.Errorf("stronghold: %v has no working window to plan", c.Method)
	}
	d, err := e.SolvedDecision()
	if err != nil {
		return WindowPlan{}, err
	}
	return WindowPlan{
		Window: d.M, MForward: d.MFP, MBackward: d.MBP, MOptimizer: d.MOpt,
		MemoryBound: d.MemoryBound, AsyncFeasible: d.AsyncFeasible,
		Streams:    d.Streams,
		OptGPUFrac: d.OptGPUFrac,
	}, nil
}
