package core

import (
	"fmt"

	"stronghold/internal/fault"
	"stronghold/internal/hw"
	"stronghold/internal/mem"
	"stronghold/internal/metrics"
	"stronghold/internal/modelcfg"
	"stronghold/internal/perf"
	"stronghold/internal/plan"
	"stronghold/internal/sim"
	"stronghold/internal/trace"
)

// Features toggles the STRONGHOLD optimizations for the Figure 14
// ablation study. The zero value disables everything (the "baseline
// offloading scheme without optimization"); DefaultFeatures enables the
// full system.
type Features struct {
	// ConcurrentOptimizers enables the §III-E1 optimizer actor pool;
	// disabled, a single CPU worker (one core's memory bandwidth)
	// performs all updates.
	ConcurrentOptimizers bool
	// UserLevelMemMgmt enables §III-E3: pinned host buffers with fully
	// asynchronous transfers through the reserved round-robin GPU pool.
	// Disabled, transfers are pageable, carry per-tensor allocation
	// cost, and synchronize with compute (the PyTorch caching-allocator
	// path).
	UserLevelMemMgmt bool
	// Streams is the number of multi-stream training workers (§IV-A).
	// 0 selects automatically during warm-up; 1 disables the
	// optimization.
	Streams int
	// UseNVMe stages layer states on secondary storage (§III-G).
	UseNVMe bool
}

// DefaultFeatures returns the full STRONGHOLD configuration.
func DefaultFeatures() Features {
	return Features{ConcurrentOptimizers: true, UserLevelMemMgmt: true, Streams: 0}
}

// tensorsPerLayer is k in the paper's n·k/m·k allocation-count
// discussion: distinct device buffers per Transformer block.
const tensorsPerLayer = 8

// defaultOptWorkers is the optimizer actor pool size with concurrent
// optimizers on ("by default, STRONGHOLD uses all available CPU cores,
// but the user can change this" — we use a third of the cores, leaving
// the rest for data loading and the framework, matching the deployment
// guidance).
const defaultOptWorkers = 16

// Engine simulates STRONGHOLD training of one model on one GPU server.
type Engine struct {
	Model  perf.Model
	Window int // 0 = solve analytically during warm-up
	Feat   Features
	// CoOpt lets the warm-up solver co-optimize optimizer placement
	// with the window size over the method's declared decision
	// variables: when the roofline says a split update is strictly
	// faster, each offloaded layer's Adam step runs 1−g on the CPU pool
	// and g on the GPU against moment chunks round-tripped over PCIe.
	// Off (the default), and in degraded mode, placement stays fixed
	// and plans are byte-identical to prior releases.
	CoOpt bool
	// LayerScale, when non-nil (length = layers), scales each layer's
	// compute and transfer volume — the heterogeneous-structure case of
	// §III-B/§III-D (e.g. alternating dense/MoE blocks). Capacity
	// checks conservatively size the window for the largest layer.
	LayerScale []float64
	// TransferJitter adds deterministic multiplicative jitter (up to
	// 2x the fraction) to every PCIe transfer — the robustness study of
	// how window depth absorbs transfer-time variability.
	TransferJitter float64
	// Faults, when non-nil and non-empty, injects the plan's
	// deterministic degradations and switches the engine into degraded
	// mode: retrying transfers, deadline tracking, and (see
	// DisableResolve) the mid-run window re-solve. A nil or empty plan
	// leaves the simulation byte-for-byte identical to an engine without
	// the field.
	Faults *fault.Plan
	// DisableResolve freezes the window at its initial size under
	// faults: they still stall, slow and drop transfers and retries
	// still happen, but m never changes — the ablation arm of the
	// robustness study. It has no effect without faults.
	DisableResolve bool
	// Workers is ignored: the simulator has one serial engine. The
	// field remains only because the host-time benchmark (hostbench/)
	// compiles against it; the benchmark's next revision drops it.
	//
	// Deprecated: has no effect.
	Workers int
	// Metrics, when non-nil, receives the run's virtual-time metrics,
	// derived after the simulation from the executor's per-op record
	// (record.go). It never changes the schedule: results and traces
	// are byte-for-byte those of an engine without the field, except
	// MetricSamples.
	Metrics *metrics.Collector

	// planOverride substitutes a hand-built schedule for the planner's
	// output — the test hook for exercising the validator's pre-sim
	// diagnostics and the executor's structured invariant errors.
	planOverride *plan.Iteration
	// planSkipValidate lowers plans with plan.Compile instead of
	// plan.Prepare, bypassing pre-sim validation, letting tests drive a
	// broken plan into the executor's runtime error path.
	planSkipValidate bool
	// recordWarmup keeps the per-op record of every iteration, as a
	// collector run does — the oracle that skipping the warm-up
	// iterations' records changes no result, trace or metric.
	recordWarmup bool
}

// NewEngine builds a STRONGHOLD engine with default features.
func NewEngine(m perf.Model) *Engine {
	return &Engine{Model: m, Feat: DefaultFeatures()}
}

// method returns the memory-model method for the feature set.
func (e *Engine) method() modelcfg.Method {
	if e.Feat.UseNVMe {
		return modelcfg.StrongholdNVMe
	}
	return modelcfg.Stronghold
}

// SteadyIters is the number of training iterations a single-GPU
// simulation runs (baselines.RunWith): the result is the final
// iteration's, the steady state past the warm-up iteration.
const SteadyIters = 3

// StreamsError rejects an explicit multi-stream worker count k that
// cannot split the batch: each of k workers trains batch/k samples
// (§IV-A), so k must divide the batch. Zero selects k automatically.
type StreamsError struct {
	Streams, BatchSize int
}

func (e *StreamsError) Error() string {
	return fmt.Sprintf("%d streams cannot split a batch of %d", e.Streams, e.BatchSize)
}

// CheckStreams returns a *StreamsError unless streams is 0 (automatic)
// or a positive divisor of batchSize.
func CheckStreams(streams, batchSize int) error {
	if streams < 0 || streams > 0 && batchSize%streams != 0 {
		return &StreamsError{Streams: streams, BatchSize: batchSize}
	}
	return nil
}

// checkInputs rejects what no schedule can run: an invalid model
// configuration, a stream count that does not split its batch, or a
// LayerScale that does not cover every layer.
func (e *Engine) checkInputs() error {
	cfg := e.Model.Cfg
	if err := cfg.Validate(); err != nil {
		return err
	}
	if e.LayerScale != nil && len(e.LayerScale) != cfg.Layers {
		return fmt.Errorf("core: LayerScale has %d entries for %d layers", len(e.LayerScale), cfg.Layers)
	}
	return CheckStreams(e.Feat.Streams, cfg.BatchSize)
}

// pickStreams returns the multi-stream worker count the warm-up phase
// selects: the largest divisor k of the batch such that k workers fit
// in GPU memory and add aggregate utilization (§IV-A: "the number of
// concurrent streams used is determined during the warm-up phase").
func (e *Engine) pickStreams(window int) int {
	if e.Feat.Streams > 0 {
		return e.Feat.Streams
	}
	cfg := e.Model.Cfg
	best := 1
	for _, k := range []int{4, 3, 2} {
		if cfg.BatchSize%k != 0 {
			continue
		}
		fp := modelcfg.Footprint(e.method(), cfg, window, k)
		if fp.GPU > e.Model.Plat.GPU.MemBytes {
			continue
		}
		per := modelcfg.KernelUtilization(cfg.BatchSize / k)
		if float64(k)*per <= modelcfg.KernelUtilization(cfg.BatchSize)+0.05 {
			continue // no aggregate gain
		}
		best = k
		break
	}
	return best
}

// SolvedDecision is the warm-up phase's decision, the one a run of e
// runs (runSim, BuildPlan): it checks the inputs, then solves the
// analytical model over the method's declared decision variables, with
// placement co-optimized only under coOptimizes. The window is
// e.Window when set, otherwise the solver's m; the optimizer split
// holds only at the solver's own window, and a failed solve under a
// set window is no error (the bounds are then zero). Streams is the
// worker count pickStreams chooses at that window.
func (e *Engine) SolvedDecision() (Decision, error) {
	if err := e.checkInputs(); err != nil {
		return Decision{}, err
	}
	prof := UniformProfile(e.Model, e.availableWindowBytes(), e.optWorkers())
	vars := modelcfg.DecisionVars{Window: true}
	if info := modelcfg.Lookup(e.method()); info != nil {
		vars = info.Decisions
	}
	if !e.coOptimizes() {
		vars.OptPlacement = false
	}
	d, err := Solve(prof, vars)
	if e.Window == 0 {
		if err != nil {
			return d, err
		}
	} else if d.M != e.Window {
		d.M, d.OptGPUFrac = e.Window, 0
	}
	d.Streams = e.pickStreams(d.M)
	return d, nil
}

// coOptimizes reports whether the solver may move optimizer placement:
// CoOpt is on and no fault plan is set. Degraded mode pins placement:
// the adaptive re-solve reasons about window size only, and
// split-update plans would complicate the mid-run patches for no
// modeled benefit under faults.
func (e *Engine) coOptimizes() bool { return e.CoOpt && e.Faults.Empty() }

func (e *Engine) optWorkers() int {
	if !e.Feat.ConcurrentOptimizers {
		return 1
	}
	return defaultOptWorkers
}

// availableWindowBytes is S_avail: device memory left for the window
// after resident layers, activations and runtime workspace.
func (e *Engine) availableWindowBytes() int64 {
	fp := modelcfg.Footprint(e.method(), e.Model.Cfg, 0, 1)
	nonWindow := fp.GPU // window term is ~1 layer at windowLayers=0
	return e.Model.Plat.GPU.MemBytes - nonWindow
}

// BuildPlan runs the planner for one iteration's schedule at the given
// window (0 = solve analytically, as Run does) without simulating
// anything — the reviewable artifact cmd/stronghold-trace -plan prints
// and diffs. The schedule is the one a run of e pinned to window runs.
func (e *Engine) BuildPlan(window int) (*plan.Iteration, error) {
	pinned := *e
	pinned.Window = window
	d, err := pinned.SolvedDecision()
	if err != nil {
		return nil, err
	}
	return plan.Build(e.planSpec(d.M, d.Streams, d.OptGPUFrac))
}

// tensorBytes is the size of each of a layer's tensorsPerLayer device
// buffers: its weights, gradients and checkpointed activations split k
// ways, scaled by the largest LayerScale entry so that every layer fits
// the same block. The planner's buffer budget, the round-robin pool and
// the caching allocator all size from it.
func (e *Engine) tensorBytes() int64 {
	cfg := e.Model.Cfg
	maxScale := 1.0
	for _, sc := range e.LayerScale {
		if sc > maxScale {
			maxScale = sc
		}
	}
	return int64(float64(cfg.LayerWeightBytes()+cfg.LayerGradBytes()+cfg.ActivationBytesPerLayer())*maxScale)/tensorsPerLayer + 1
}

// utilFor is the per-worker kernel utilization at the given stream
// count: concurrent streams contend for the SM scheduler and memory
// ports, so their aggregate utilization saturates at MultiStreamCap.
func (e *Engine) utilFor(streams int) float64 {
	perStream := e.Model
	perStream.Cfg.BatchSize = e.Model.Cfg.BatchSize / streams
	util := perStream.EffectiveUtilization()
	if agg := float64(streams) * util; streams > 1 && agg > modelcfg.MultiStreamCap {
		util = modelcfg.MultiStreamCap / float64(streams)
	}
	return util
}

// planSpec lowers the engine's model, features and window decision into
// the planner input for one iteration's schedule. optFrac > 0 selects
// the co-optimized split optimizer placement (solver Decision).
func (e *Engine) planSpec(window, streams int, optFrac float64) plan.Spec {
	cfg := e.Model.Cfg
	plat := e.Model.Plat
	util := e.utilFor(streams)
	perStream := cfg
	perStream.BatchSize = cfg.BatchSize / streams
	s := plan.Spec{
		Layers:          cfg.Layers,
		Window:          window,
		Queues:          streams,
		NVMe:            e.Feat.UseNVMe,
		Sync:            !e.Feat.UserLevelMemMgmt, // pageable path serializes with compute
		SingleOpt:       !e.Feat.ConcurrentOptimizers,
		BufBytes:        e.tensorBytes() * tensorsPerLayer,
		WeightBytes:     cfg.LayerWeightBytes(),
		CheckpointBytes: cfg.ActivationBytesPerLayer(),
		StateBytes:      cfg.LayerWeightBytes() + cfg.LayerGradBytes(),
		FwdFlops:        perStream.ForwardFlopsPerLayer(),
		BwdFlops:        perStream.BackwardFlopsPerLayer(e.Model.Checkpointing),
		EmbedFlops:      perStream.EmbeddingFlops(),
		OptDurNS:        e.cpuOptDuration(),
		LayerScale:      e.LayerScale,
	}
	if streams > 1 {
		// Gradient all-reduce across multi-stream workers happens on-GPU
		// over HBM before each layer's gradient offload (§IV-A).
		bytes := float64(cfg.LayerGradBytes()) * 2 * float64(streams-1) / float64(streams)
		s.GradSyncFlops = bytes / plat.GPU.MemBandwidth * util * plat.GPU.PeakFlops
	}
	s.ResidentOptFlops = float64(window)*e.gpuOptFlops(util) + e.gpuEmbedOptFlops(util)
	if optFrac > 0 {
		s.OptGPUFrac = optFrac
		s.MomentBytes = cfg.LayerParamsShard() * modelcfg.BytesOptState
		s.GPUOptFlops = e.gpuOptFlops(util)
	}
	return s
}

// Run simulates iters training iterations and returns the steady-state
// result (the duration of the final iteration). When tr is non-nil it
// receives the spans of the final iteration and of any window-resize
// patch (plus, in degraded mode, fault and recovery events from the
// whole run); the result is the same either way.
func (e *Engine) Run(iters int, tr *trace.Trace) perf.IterationResult {
	res, _ := e.runSim(iters, tr)
	return res
}

// runSim is Run plus white-box access to the finished run state — the
// property tests use it to audit arena balance and window trajectory.
func (e *Engine) runSim(iters int, tr *trace.Trace) (perf.IterationResult, *iterRun) {
	res := perf.IterationResult{Method: e.method()}
	cfg := e.Model.Cfg
	d, err := e.SolvedDecision()
	if err != nil {
		res.OOM, res.OOMDetail = true, err.Error()
		return res, nil
	}
	window, streams, optFrac := d.M, d.Streams, d.OptGPUFrac
	res.OptGPUFrac, res.Streams = optFrac, streams

	// Capacity check before simulating.
	fp := modelcfg.Footprint(e.method(), cfg, window, streams)
	plat := e.Model.Plat
	if !fp.Fits(plat.GPU.MemBytes, plat.CPU.UsableMemBytes, plat.NVMe.Bytes) {
		res.OOM = true
		res.OOMDetail = fmt.Sprintf("footprint gpu=%d host=%d disk=%d exceeds capacity", fp.GPU, fp.Host, fp.Disk)
		return res, nil
	}
	res.GPUPeak = fp.GPU

	run, err := e.setup(tr)
	if err != nil {
		res.OOM, res.OOMDetail = true, err.Error()
		return res, nil
	}
	faulted := run.inj != nil
	// In degraded mode the buffer pool is sized for the largest window
	// the adaptive re-solve may grow into; on the clean path this is
	// exactly the solved window, preserving the pool's byte accounting.
	bufWindow := window
	if faulted && !e.DisableResolve {
		bufWindow = e.maxFeasibleWindow(window, streams)
		// The pool holds bufWindow's buffers from the start.
		res.GPUPeak = modelcfg.Footprint(e.method(), cfg, bufWindow, streams).GPU
	}
	run.initWindow(window, bufWindow, streams)
	run.optFrac = optFrac
	// Plan the initial window and validate it before simulating: a
	// schedule that could violate the buffer invariants is rejected here
	// as a diagnostic, not discovered mid-simulation.
	if run.planFor(window) == nil || run.schedErr != nil {
		res.OOM = true
		if run.schedErr != nil {
			res.OOMDetail = run.schedErr.Error()
		}
		run.teardown()
		return res, run
	}
	res.PlanOps = uint64(len(run.plans[window].Ops))
	var ends []*plan.Run
	if faulted {
		ends = run.runAdaptive(iters)
	} else {
		// Schedule every iteration up front: cross-iteration dependencies
		// are waits on the earlier call's ops, so the CPU-optimizer tail
		// of one iteration overlaps the next iteration's forward pass
		// exactly as in the real runtime.
		ends = make([]*plan.Run, iters)
		for it := range ends {
			ends[it] = run.iteration(it == iters-1)
		}
	}
	run.machine.Eng.Run()
	var lastStart sim.Time
	if iters > 1 {
		lastStart = ends[iters-2].EndAt()
	}
	res.IterTime = ends[iters-1].EndAt() - lastStart
	// A trace and Overlap cover the final iteration and every resize
	// patch; the collector covers every run.
	traced := []*plan.Run{ends[iters-1]}
	for _, p := range run.patches {
		traced = append(traced, p.run)
	}
	run.finish(&res, tr, traced, ends[:iters-1])
	return res, run
}

// setup starts a run of e for either driver (runSim, RunPlan): a fresh
// engine and machine, transfer jitter, and under a non-empty fault plan
// its injector installed in degraded mode (enableFaults), with tr as
// the sink for the run's fault and recovery events.
func (e *Engine) setup(tr *trace.Trace) (*iterRun, error) {
	var inj *fault.Injector
	if !e.Faults.Empty() {
		var err error
		if inj, err = fault.NewInjector(e.Faults); err != nil {
			return nil, err
		}
	}
	r := &iterRun{e: e, machine: hw.NewMachine(sim.NewEngine(), e.Model.Plat)}
	r.st.Detail = e.Metrics != nil
	if e.TransferJitter > 0 {
		r.machine.H2D.SetJitter(1, e.TransferJitter)
		r.machine.D2H.SetJitter(2, e.TransferJitter)
	}
	if inj != nil {
		r.enableFaults(inj, tr)
	}
	return r, nil
}

// finish assembles a drained run's result into res for either driver,
// which has already set IterTime and PlanOps: the engine's step count,
// every resource's busy fraction (Compute is the SM array's, or a timed
// run's queue 0), the allocator counters, the degraded-mode counters
// and the schedErr → OOM rule. traced are the runs a trace and Overlap
// cover, which under faults also gets the injected fault windows;
// earlier are the runs only the collector, when Metrics is set, also
// covers. Teardown follows.
func (r *iterRun) finish(res *perf.IterationResult, tr *trace.Trace, traced, earlier []*plan.Run) {
	m := r.machine
	res.Steps = m.Eng.Steps()
	compute := m.Compute.Utilization()
	if r.timed && len(r.queues) > 0 {
		compute = r.queues[0].Utilization()
	}
	res.Util = perf.ResourceUtil{
		Compute: compute,
		H2D:     m.H2D.Utilization(),
		D2H:     m.D2H.Utilization(),
		CPU:     m.CPUPool.Utilization(),
		NVMe:    m.NVMeQ.Utilization(),
	}
	res.AllocOps = m.GPUMem.AllocOps()
	res.CacheFlushes = r.cacheFlushes
	if r.cache != nil {
		res.CacheOps = r.cache.Hits() + r.cache.Misses()
	}
	res.Retries = r.retries
	res.DeadlineMisses = r.deadlineMisses
	res.WindowResolves = r.resolves
	res.FinalWindow = r.window
	if r.schedErr != nil {
		// A runtime scheduling-invariant violation (only reachable with
		// validation bypassed) surfaces as a structured error, not a
		// panic.
		res.OOM = true
		res.OOMDetail = r.schedErr.Error()
	}
	res.Overlap = overlap(traced)
	if tr != nil {
		r.addSpans(tr, traced)
		if r.inj != nil {
			emitFaultWindows(tr, r.inj, m.Eng.Now())
		}
	}
	if r.e.Metrics != nil {
		res.MetricSamples = r.collect(r.e.Metrics, append(traced, earlier...))
	}
	r.teardown()
}

// iterRun holds the cross-iteration simulation state of one engine.
type iterRun struct {
	e       *Engine
	machine *hw.Machine
	window  int
	streams []*hw.Stream
	lt      perf.LayerTimes
	util    float64 // per-worker kernel utilization
	n       int
	// st carries the executor's queue order and cross-iteration facts
	// from one iteration or patch to the next, and numbers their events.
	st plan.State
	// patches lists the window resizes applied, in order.
	patches []patchRun
	// timed marks an explicit-duration run (RunPlan): every op occupies
	// its resource for exactly its DurNS, and compute runs on queues
	// (one FIFO per plan queue) instead of GPU streams.
	timed  bool
	queues []*sim.Resource

	// bufWindow sizes the reserved pool (and the plans' slot budget);
	// it exceeds window only in degraded mode, where it caps the
	// re-solve's growth.
	bufWindow int
	// tensorBytes is the size of every device buffer a layer takes
	// (Engine.tensorBytes), from the pool or the caching allocator.
	tensorBytes int64
	// optFrac is the co-optimized GPU share of each offloaded layer's
	// optimizer update (0 = all-CPU, the fixed paper placement).
	optFrac float64
	// plans caches one validated schedule per window size, and progs
	// its compiled form; the adaptive path re-plans only at unseen
	// window sizes and patches between them. Never ranged — lookups
	// only — so map order cannot leak.
	plans map[int]*plan.Iteration
	progs map[int]*plan.Compiled
	// schedErr records the first scheduling-invariant violation (plan
	// validation failure, or pool exhaustion with validation bypassed);
	// runSim surfaces it through IterationResult.OOMDetail.
	schedErr error

	// Buffer management (§III-E3): the user-level round-robin pool
	// (one-off (m+1)·k raw allocations) or the framework caching
	// allocator (per-visit Get/Put traffic). layerBuf holds, per layer,
	// its pool buffers while resident; layerCache its cached blocks. A
	// release truncates the layer's list, so its capacity serves the
	// layer's next visit.
	pool         *mem.RoundRobinPool
	cache        *mem.CachingAllocator
	layerBuf     [][]int
	layerCache   [][]*mem.Block
	cacheFlushes uint64

	// baseWindow is the initial window: the clean solver decision, and
	// in degraded mode the floor the re-solve may shrink back to.
	baseWindow int

	// Degraded mode (all nil/zero on the clean path; see degrade.go).
	inj            *fault.Injector
	faultTr        *trace.Trace // whole-run fault/recovery event sink
	obsNominal     sim.Time     // model-predicted transfer time, this iteration
	obsActual      sim.Time     // observed transfer time incl. retry backoff
	retries        uint64
	deadlineMisses uint64
	resolves       uint64
}

// initWindow prepares a STRONGHOLD run's window state on a fresh run
// (setup): streams, plan caches, and the buffer pool or caching
// allocator holding the first window. bufWindow ≥ window sizes the
// reserved buffer pool; it exceeds window only in degraded mode, where
// the adaptive re-solve may grow the window to it.
func (r *iterRun) initWindow(window, bufWindow, streams int) {
	e := r.e
	cfg := e.Model.Cfg
	perStream := e.Model
	perStream.Cfg.BatchSize = cfg.BatchSize / streams
	r.window, r.baseWindow, r.bufWindow = window, window, bufWindow
	r.tensorBytes = e.tensorBytes()
	r.lt = perStream.Layer()
	r.util = e.utilFor(streams)
	r.n = cfg.Layers
	r.plans = make(map[int]*plan.Iteration)
	r.progs = make(map[int]*plan.Compiled)
	for s := 0; s < streams; s++ {
		r.streams = append(r.streams, r.machine.NewStream(fmt.Sprintf("worker%d", s)))
	}
	// Window buffer management against the real device arena.
	if e.Feat.UserLevelMemMgmt {
		pool, err := mem.NewRoundRobinPool(r.machine.GPUMem, r.tensorBytes, (bufWindow+1)*tensorsPerLayer)
		if err == nil {
			r.pool = pool
			r.layerBuf = make([][]int, r.n)
		}
		// A nil pool (arena contention in exotic configs) degrades to
		// un-instrumented buffers; the Footprint check remains the
		// capacity authority.
	} else {
		r.cache = mem.NewCachingAllocator(r.machine.GPUMem)
		r.layerCache = make([][]*mem.Block, r.n)
	}
	// The first window's layers are resident before training starts
	// (§III-E1), holding their buffers.
	for i := 0; i < window && i < r.n; i++ {
		if err := r.acquireLayer(i); err != nil && r.schedErr == nil {
			r.schedErr = err
		}
	}
}

// planFor returns the cached, validated schedule for a window size,
// planning and preparing it (plan.Prepare: validation and lowering) on
// first use. Validation runs on every plan, planner-built or injected
// through the test hooks, and costs time linear in the plan size; a
// build or validation failure records schedErr.
func (r *iterRun) planFor(window int) *plan.Iteration {
	if p, ok := r.plans[window]; ok {
		return p
	}
	p := r.e.planOverride
	var err error
	if p == nil {
		spec := r.e.planSpec(window, len(r.streams), r.optFrac)
		spec.BudgetSlots = r.bufWindow + 1
		p, err = plan.Build(spec)
	}
	var c *plan.Compiled
	if err == nil {
		if r.e.planSkipValidate {
			c = plan.Compile(&p.Graph)
		} else {
			c, err = plan.Prepare(p)
		}
	}
	if err != nil {
		if r.schedErr == nil {
			r.schedErr = err
		}
		return nil
	}
	r.plans[window] = p
	r.progs[window] = c
	return p
}

// acquireLayer claims device buffers for a layer entering the window.
// In user-level mode exhaustion is a scheduling-invariant violation
// (the buffer-recycling dependencies exist precisely to prevent it,
// and plan.Prepare proves planner-built schedules cannot hit it); it
// is reported as a structured error, not a crash. In caching mode an
// exhausted arena triggers a cache flush — the §III-E3 thrash — before
// retrying.
func (r *iterRun) acquireLayer(layer int) error {
	switch {
	case r.pool != nil:
		// Append rather than assign: on a validated plan the layer holds
		// nothing here, but a validation-bypassed double acquire must not
		// orphan in-use buffers or teardown's accounting breaks. A failed
		// acquire rolls back to what the layer held before.
		held := r.layerBuf[layer]
		base := len(held)
		for t := 0; t < tensorsPerLayer; t++ {
			idx, err := r.pool.Acquire()
			if err != nil {
				for _, idx := range held[base:] {
					r.pool.Release(idx)
				}
				r.layerBuf[layer] = held[:base]
				return fmt.Errorf("core: window buffer invariant violated at layer %d: %w", layer, err)
			}
			held = append(held, idx)
		}
		r.layerBuf[layer] = held
	case r.cache != nil:
		blocks := r.layerCache[layer]
		for t := 0; t < tensorsPerLayer; t++ {
			b, err := r.cache.Get(r.tensorBytes)
			if err != nil {
				r.cache.ReleaseAll()
				r.cacheFlushes++
				if b, err = r.cache.Get(r.tensorBytes); err != nil {
					continue // live set exceeds arena; count and move on
				}
			}
			blocks = append(blocks, b)
		}
		r.layerCache[layer] = blocks
	}
	return nil
}

// releaseLayer returns a layer's buffers as it leaves the window.
func (r *iterRun) releaseLayer(layer int) {
	switch {
	case r.pool != nil:
		for _, idx := range r.layerBuf[layer] {
			r.pool.Release(idx)
		}
		r.layerBuf[layer] = r.layerBuf[layer][:0]
	case r.cache != nil:
		for _, b := range r.layerCache[layer] {
			r.cache.Put(b)
		}
		clear(r.layerCache[layer])
		r.layerCache[layer] = r.layerCache[layer][:0]
	}
}

// copyOp issues a Prefetch (H2D) or Offload (D2H) on its PCIe queue;
// under faults a copy that hits a blackout window is reissued
// (submitWithRetry).
//
//vet:hotpath
func (ev *schedEnv) copyOp(op *plan.Op) {
	r := ev.r
	h2d := op.Kind == plan.Prefetch
	res := r.machine.D2H
	if h2d {
		res = r.machine.H2D
	}
	dur := r.copyTime(op)
	if r.inj == nil {
		ev.run.Submitted(op.ID, 0)
		res.Submit(dur, ev, int32(op.ID))
		return
	}
	// Degraded mode: the copy may hit a blackout window and retry with
	// virtual-time backoff; its observed time feeds the adaptive
	// re-solve (Complete).
	tg := fault.D2H
	if h2d {
		tg = fault.H2D
	}
	ev.submitWithRetry(res, tg, dur, op.ID, 0)
}

// copyTime is a copy op's occupancy of its PCIe queue: the op's DurNS
// in a timed run; otherwise the async-call overhead plus the transfer,
// and on the pageable path the per-tensor allocation surcharge.
func (r *iterRun) copyTime(op *plan.Op) sim.Time {
	if r.timed {
		return op.DurNS
	}
	spec := r.machine.Spec
	pinned := r.e.Feat.UserLevelMemMgmt
	extra := sim.Time(0)
	if !pinned {
		// Caching-allocator path: per-tensor allocation operations with
		// implicit synchronization (§III-E3).
		extra = sim.Time(tensorsPerLayer) * sim.Time(spec.AllocOpNS)
	}
	return spec.AsyncCallNS + extra + spec.PCIe.CopyTime(op.Bytes, pinned)
}

// cpuOptDuration is one layer's CPU Adam time for the configured pool.
func (e *Engine) cpuOptDuration() sim.Time {
	spec := e.Model.Plat.CPU
	workers := e.optWorkers()
	perWorkerBW := spec.MemBandwidth / float64(workers)
	if perCore := perWorkerCap(spec); perWorkerBW > perCore {
		perWorkerBW = perCore
	}
	return sim.Time(float64(e.Model.Cfg.LayerParamsShard()*modelcfg.BytesAdamTraffic) / perWorkerBW * 1e9)
}

// perWorkerCap is the DRAM bandwidth a single optimizer thread can
// drive: roughly 1/32 of socket bandwidth (~3 GB/s on the V100 host),
// matching measured single-threaded CPU Adam throughput — this is why a
// lone CPU optimizer becomes the bottleneck §III-E1 removes.
func perWorkerCap(spec hw.CPUSpec) float64 {
	return spec.MemBandwidth / 32
}

// iteration schedules one full training iteration by walking its plan
// through the simulation environment, and returns the executor's run,
// which ends with every stream's last kernel and the plan's final op
// (the resident update). Only the final iteration keeps a per-op record
// (plan.Record), which spans and Overlap read, unless a collector,
// which covers every run, is set. r.window always names a prepared
// plan: Run prepares the first window before simulating, and resize
// moves only to a window planFor has prepared.
func (r *iterRun) iteration(final bool) *plan.Run {
	c, eng, env := r.progs[r.window], r.machine.Eng, &schedEnv{r: r}
	if final || r.e.Metrics != nil || r.e.recordWarmup {
		return plan.Execute(c, eng, &r.st, env)
	}
	return plan.ExecuteUnrecorded(c, eng, &r.st, env)
}

// schedEnv runs plan ops on the simulated machine: kernels on GPU
// streams, copies on the PCIe queues (with degraded-mode retries),
// optimizer steps on the CPU pool, staging on the NVMe queue, and
// buffer ops against the §III-E3 pool. One env per Execute call
// carries that call's executor run, to which it reports every submit
// and completion; it is also the sim.Completer every op's work reports
// back to, tagged by op ID.
type schedEnv struct {
	r   *iterRun
	run *plan.Run
	// delayed holds, in degraded mode, the retry backoff of each copy of
	// this run that hit a blackout window, until the copy completes;
	// nil until one does.
	delayed map[plan.ID]sim.Time
}

func (ev *schedEnv) Start(op *plan.Op, run *plan.Run) {
	ev.run = run
	r := ev.r
	tag := int32(op.ID)
	switch op.Kind {
	case plan.ComputeFP, plan.ComputeBP:
		ev.kernel(op)
	case plan.OptStep:
		if op.GPU {
			ev.kernel(op)
		} else {
			ev.cpuOpt(op)
		}
	case plan.Prefetch, plan.Offload:
		ev.copyOp(op)
	case plan.NVMeStage:
		dur := op.DurNS
		if !r.timed {
			nvme := r.machine.Spec.NVMe
			dur = nvme.ReadTime(op.Bytes)
			if op.Write {
				dur = nvme.WriteTime(op.Bytes)
			}
		}
		run.Submitted(op.ID, 0)
		r.machine.NVMeQ.Submit(dur, ev, tag)
	case plan.BufAcquire:
		if err := r.acquireLayer(int(op.Layer)); err != nil && r.schedErr == nil {
			r.schedErr = err
		}
		run.Done(op.ID, r.machine.Eng.Now())
	case plan.BufRelease:
		r.releaseLayer(int(op.Layer))
		run.Done(op.ID, r.machine.Eng.Now())
	default:
		if r.schedErr == nil {
			r.schedErr = fmt.Errorf("core: plan op %d has unknown kind %d", op.ID, op.Kind)
		}
		run.Done(op.ID, r.machine.Eng.Now())
	}
}

// kernel runs a compute op or GPU optimizer step on its queue: as flops
// on a GPU stream, or for its DurNS on a timed run's FIFO queue.
//
//vet:hotpath
func (ev *schedEnv) kernel(op *plan.Op) {
	r := ev.r
	if r.timed {
		ev.run.Submitted(op.ID, 0)
		r.queues[op.Queue].Submit(op.DurNS, ev, int32(op.ID))
		return
	}
	r.streams[op.Queue].Launch(op.Flops, r.util, ev, int32(op.ID))
}

// cpuOpt submits one layer's Adam update to the optimizer pool (or, when
// §III-E1 is off, to the pool's first worker: one serialized optimizer).
//
//vet:hotpath
func (ev *schedEnv) cpuOpt(op *plan.Op) {
	pool := ev.r.machine.CPUPool
	w := 0
	if ev.r.e.Feat.ConcurrentOptimizers {
		w = pool.Pick()
	}
	ev.run.Submitted(op.ID, w)
	pool.Worker(w).Submit(op.DurNS, ev, int32(op.ID))
}

// Complete is every op's completion: it reports the op, with its start,
// done to the executor, whose record keeps the span. In degraded mode a
// copy first reports its observed time, including any retry backoff,
// against its nominal time (copyTime) to the adaptive re-solve.
//
//vet:hotpath
func (ev *schedEnv) Complete(tag int32, start, end sim.Time) {
	id := plan.ID(tag)
	if r := ev.r; r.inj != nil {
		if op := ev.run.Op(id); op.Kind == plan.Prefetch || op.Kind == plan.Offload {
			delayed := ev.delayed[id]
			delete(ev.delayed, id)
			r.observeCopy(op, r.copyTime(op), start, end, delayed)
		}
	}
	ev.run.Done(id, start)
}

// gpuOptFlops converts the HBM-bound resident-layer update into
// equivalent kernel work at the given utilization.
func (e *Engine) gpuOptFlops(util float64) float64 {
	bytes := float64(e.Model.Cfg.LayerParamsShard() * modelcfg.BytesAdamTraffic)
	sec := bytes / e.Model.Plat.GPU.MemBandwidth
	return sec * util * e.Model.Plat.GPU.PeakFlops
}

func (e *Engine) gpuEmbedOptFlops(util float64) float64 {
	bytes := float64(e.Model.Cfg.EmbeddingParams() / int64(e.Model.Cfg.ModelParallel) * modelcfg.BytesAdamTraffic)
	sec := bytes / e.Model.Plat.GPU.MemBandwidth
	return sec * util * e.Model.Plat.GPU.PeakFlops
}
