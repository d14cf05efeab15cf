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

// defaultOptWorkers is the optimizer actor pool size when the caller
// does not override it ("by default, STRONGHOLD uses all available CPU
// cores, but the user can change this" — we default to a third of the
// cores, leaving the rest for data loading and the framework, matching
// the deployment guidance).
const defaultOptWorkers = 16

// Engine simulates STRONGHOLD training of one model on one GPU server.
type Engine struct {
	Model      perf.Model
	Window     int // 0 = solve analytically during warm-up
	Feat       Features
	OptWorkers int // 0 = defaultOptWorkers
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
	// mode: retrying transfers, deadline tracking, and (see Adapt) the
	// mid-run window re-solve. A nil or empty plan leaves the
	// simulation byte-for-byte identical to an engine without the
	// field.
	Faults *fault.Plan
	// Adapt tunes degraded-mode behavior; zero value = defaults.
	Adapt AdaptConfig
	// Workers is ignored: the simulator has one serial engine. The
	// field remains only because the host-time benchmark (hostbench/)
	// compiles against it; the benchmark's next revision drops it.
	//
	// Deprecated: has no effect.
	Workers int
	// Metrics, when non-nil, collects the run's virtual-time metrics:
	// it is installed as the sim engine's Observer and the machine's
	// TransferObserver, and the engine feeds it window/optimizer/fault
	// events from its own scheduling paths. Same contract as
	// fault.SetStretch: nil (the default) leaves every schedule and
	// trace byte-for-byte identical to an engine without the field.
	Metrics *metrics.Collector

	// planOverride substitutes a hand-built schedule for the planner's
	// output — the test hook for exercising the validator's pre-sim
	// diagnostics and the executor's structured invariant errors.
	planOverride *plan.Iteration
	// planSkipValidate bypasses pre-sim validation, letting tests drive
	// a broken plan into the executor's runtime error path.
	planSkipValidate bool
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

// PickStreams returns the multi-stream worker count the warm-up phase
// selects: the largest divisor k of the batch such that k workers fit
// in GPU memory and add aggregate utilization (§IV-A: "the number of
// concurrent streams used is determined during the warm-up phase").
func (e *Engine) PickStreams(window int) int {
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

// SolvedWindow runs the warm-up profiling + analytical model and
// returns the window decision.
func (e *Engine) SolvedWindow() (WindowDecision, error) {
	avail := e.availableWindowBytes()
	prof := UniformProfile(e.Model, avail, e.optWorkers())
	return SolveWindow(prof)
}

// SolvedDecision runs the warm-up profile through the co-optimizing
// solver over the method's declared decision variables. With CoOpt off
// the placement variable is pinned and the result reduces to
// SolvedWindow with OptGPUFrac 0.
func (e *Engine) SolvedDecision() (Decision, error) {
	avail := e.availableWindowBytes()
	prof := UniformProfile(e.Model, avail, e.optWorkers())
	vars := modelcfg.DecisionVars{Window: true}
	if info := modelcfg.Lookup(e.method()); info != nil {
		vars = info.Decisions
	}
	if !e.CoOpt {
		vars.OptPlacement = false
	}
	return Solve(prof, vars)
}

func (e *Engine) optWorkers() int {
	if !e.Feat.ConcurrentOptimizers {
		return 1
	}
	if e.OptWorkers > 0 {
		return e.OptWorkers
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
// and diffs.
func (e *Engine) BuildPlan(window int) (*plan.Iteration, error) {
	if err := e.Model.Cfg.Validate(); err != nil {
		return nil, err
	}
	window, optFrac, err := e.resolveWindow(window)
	if err != nil {
		return nil, err
	}
	if e.LayerScale != nil && len(e.LayerScale) != e.Model.Cfg.Layers {
		return nil, fmt.Errorf("core: LayerScale has %d entries for %d layers", len(e.LayerScale), e.Model.Cfg.Layers)
	}
	return plan.Build(e.planSpec(window, e.PickStreams(window), optFrac))
}

// resolveWindow settles the window to plan at (0 = solve analytically)
// and the co-optimized GPU share of each offloaded layer's optimizer
// update. With CoOpt on and no faults one SolvedDecision answers both;
// the share applies only when the plan runs at the solver's own window.
// Degraded mode pins placement: the adaptive re-solve reasons about
// window size only, and split-update plans would complicate the mid-run
// patches for no modeled benefit under faults.
func (e *Engine) resolveWindow(window int) (int, float64, error) {
	optFrac := 0.0
	if e.CoOpt && e.Faults.Empty() {
		if d, err := e.SolvedDecision(); err == nil {
			if window == 0 {
				window = d.M
			}
			if window == d.M {
				optFrac = d.OptGPUFrac
			}
		}
	}
	if window == 0 {
		d, err := e.SolvedWindow()
		if err != nil {
			return 0, 0, err
		}
		window = d.M
	}
	return window, optFrac, nil
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
// result (the duration of the final iteration). When tr is non-nil the
// final iteration's spans are recorded into it (plus, in degraded mode,
// fault and recovery events from the whole run).
func (e *Engine) Run(iters int, tr *trace.Trace) perf.IterationResult {
	res, _ := e.runSim(iters, tr)
	return res
}

// runSim is Run plus white-box access to the finished run state — the
// property tests use it to audit arena balance and window trajectory.
func (e *Engine) runSim(iters int, tr *trace.Trace) (perf.IterationResult, *iterRun) {
	res := perf.IterationResult{Method: e.method()}
	cfg := e.Model.Cfg
	if err := cfg.Validate(); err != nil {
		res.OOM, res.OOMDetail = true, err.Error()
		return res, nil
	}
	window, optFrac, err := e.resolveWindow(e.Window)
	if err != nil {
		res.OOM, res.OOMDetail = true, err.Error()
		return res, nil
	}
	streams := e.PickStreams(window)
	res.OptGPUFrac = optFrac

	// Capacity check before simulating.
	fp := modelcfg.Footprint(e.method(), cfg, window, streams)
	plat := e.Model.Plat
	if !fp.Fits(plat.GPU.MemBytes, plat.CPU.UsableMemBytes, plat.NVMe.Bytes) {
		res.OOM = true
		res.OOMDetail = fmt.Sprintf("footprint gpu=%d host=%d disk=%d exceeds capacity", fp.GPU, fp.Host, fp.Disk)
		return res, nil
	}
	res.GPUPeak = fp.GPU

	if e.LayerScale != nil && len(e.LayerScale) != cfg.Layers {
		res.OOM = true
		res.OOMDetail = fmt.Sprintf("LayerScale has %d entries for %d layers", len(e.LayerScale), cfg.Layers)
		return res, nil
	}
	faulted := !e.Faults.Empty()
	var inj *fault.Injector
	if faulted {
		var err error
		if inj, err = fault.NewInjector(e.Faults); err != nil {
			res.OOM, res.OOMDetail = true, err.Error()
			return res, nil
		}
	}
	eng := sim.NewEngine()
	machine, err := hw.NewMachine(eng, plat, min(fp.Host, plat.CPU.UsableMemBytes-1))
	if err != nil {
		res.OOM, res.OOMDetail = true, err.Error()
		return res, nil
	}
	if e.TransferJitter > 0 {
		machine.H2D.SetJitter(1, e.TransferJitter)
		machine.D2H.SetJitter(2, e.TransferJitter)
	}
	if e.Metrics != nil {
		eng.SetObserver(e.Metrics)
		machine.Xfer = e.Metrics
		e.Metrics.SetWindow(0, window)
	}
	// In degraded mode the buffer pool is sized for the largest window
	// the adaptive re-solve may grow into; on the clean path this is
	// exactly the solved window, preserving the pool's byte accounting.
	bufWindow := window
	if faulted && !e.Adapt.DisableResolve {
		bufWindow = e.maxFeasibleWindow(window, streams)
	}
	run := newIterRun(e, machine, window, bufWindow, streams)
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
	var ends []*sim.Signal
	if faulted {
		run.enableFaults(inj, e.Adapt.withDefaults(), tr,
			UniformProfile(e.Model, e.availableWindowBytes(), e.optWorkers()), bufWindow)
		ends = run.runAdaptive(iters, tr)
	} else {
		// Schedule every iteration up front: cross-iteration dependencies
		// are expressed through signals, so the CPU-optimizer tail of one
		// iteration overlaps the next iteration's forward pass exactly as
		// in the real runtime.
		ends = make([]*sim.Signal, iters)
		for it := 0; it < iters; it++ {
			var itTrace *trace.Trace
			if it == iters-1 && tr != nil {
				itTrace = tr
			}
			ends[it] = run.iteration(itTrace)
		}
	}
	eng.Run()
	res.Steps = eng.Steps()
	res.Util = perf.ResourceUtil{
		Compute: machine.Compute.Utilization(),
		H2D:     machine.H2D.Utilization(),
		D2H:     machine.D2H.Utilization(),
		CPU:     machine.CPUPool.Utilization(),
		NVMe:    machine.NVMeQ.Utilization(),
		NIC:     machine.NIC.Utilization(),
	}
	if e.Metrics != nil {
		res.MetricSamples = e.Metrics.Points()
	}
	var lastStart sim.Time
	if iters > 1 {
		lastStart = ends[iters-2].FiredAt()
	}
	res.IterTime = ends[iters-1].FiredAt() - lastStart
	res.AllocOps = machine.GPUMem.AllocOps()
	res.CacheFlushes = run.cacheFlushes
	if run.cache != nil {
		res.CacheOps = run.cache.Hits() + run.cache.Misses()
	}
	res.Retries = run.retries
	res.DeadlineMisses = run.deadlineMisses
	res.WindowResolves = run.resolves
	res.FinalWindow = run.window
	if run.schedErr != nil {
		// A runtime buffer-invariant violation (only reachable with
		// validation bypassed) surfaces as a structured error, not a
		// panic.
		res.OOM = true
		res.OOMDetail = run.schedErr.Error()
	}
	if faulted && tr != nil {
		emitFaultWindows(tr, inj, eng.Now())
	}
	if tr != nil {
		res.Overlap = tr.OverlapFraction(
			[]trace.Kind{trace.KindCompute},
			[]trace.Kind{trace.KindH2D, trace.KindD2H, trace.KindNVMe})
	}
	run.teardown()
	return res, run
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

	// optDone[i] is the signal that layer i's parameters are updated
	// and ready for the next iteration's prefetch.
	optDone []*sim.Signal
	// nvmeStaged[i]: layer i's weights present in the host staging ring.
	nvmeStaged []*sim.Signal
	// singleOpt serializes updates when concurrent optimizers are off
	// (one optimizer instance, as in conventional training and
	// ZeRO-Offload).
	singleOpt *sim.Resource
	iter      int

	// bufWindow sizes the reserved pool (and the plans' slot budget);
	// it exceeds window only in degraded mode.
	bufWindow int
	// tensorBytes is the size of every device buffer a layer takes
	// (Engine.tensorBytes), from the pool or the caching allocator.
	tensorBytes int64
	// optFrac is the co-optimized GPU share of each offloaded layer's
	// optimizer update (0 = all-CPU, the fixed paper placement).
	optFrac float64
	// plans caches one validated schedule per window size; the adaptive
	// path re-plans only at unseen window sizes and patches between
	// them. Never ranged — lookups only — so map order cannot leak.
	plans map[int]*plan.Iteration
	// schedErr records the first scheduling-invariant violation (plan
	// validation failure, or pool exhaustion with validation bypassed);
	// runSim surfaces it through IterationResult.OOMDetail.
	schedErr error

	// Buffer management (§III-E3): the user-level round-robin pool
	// (one-off (m+1)·k raw allocations) or the framework caching
	// allocator (per-visit Get/Put traffic). layerBuf maps a layer to
	// its pool buffers while resident; layerCache to its cached blocks.
	pool         *mem.RoundRobinPool
	cache        *mem.CachingAllocator
	layerBuf     map[int][]int
	layerCache   map[int][]*mem.Block
	cacheFlushes uint64

	// Degraded mode (all nil/zero on the clean path; see degrade.go).
	inj         *fault.Injector
	adapt       AdaptConfig
	faultTr     *trace.Trace // whole-run fault/recovery event sink
	baseProfile Profile      // clean warm-up profile the re-solve rescales
	baseWindow  int          // clean solver decision (shrink floor)
	maxWindow   int          // memory-feasible ceiling (grow limit)
	// residentReady[i] gates layer i's first use after a mid-run grow:
	// its prefetch may still be in flight at the iteration boundary.
	residentReady  map[int]*sim.Signal
	obsNominal     sim.Time // model-predicted transfer time, this iteration
	obsActual      sim.Time // observed transfer time incl. retry backoff
	retries        uint64
	deadlineMisses uint64
	resolves       uint64
}

// newIterRun prepares run state. bufWindow ≥ window sizes the reserved
// buffer pool; it exceeds window only in degraded mode, where the
// adaptive re-solve may grow the window to it.
func newIterRun(e *Engine, machine *hw.Machine, window, bufWindow, streams int) *iterRun {
	cfg := e.Model.Cfg
	perStream := e.Model
	perStream.Cfg.BatchSize = cfg.BatchSize / streams
	r := &iterRun{
		e:           e,
		machine:     machine,
		window:      window,
		bufWindow:   bufWindow,
		tensorBytes: e.tensorBytes(),
		lt:          perStream.Layer(),
		util:        e.utilFor(streams),
		n:           cfg.Layers,
		plans:       make(map[int]*plan.Iteration),
	}
	for s := 0; s < streams; s++ {
		r.streams = append(r.streams, machine.NewStream(fmt.Sprintf("worker%d", s)))
	}
	if !e.Feat.ConcurrentOptimizers {
		r.singleOpt = sim.NewResource(machine.Eng, "cpu-opt-single")
	}
	// Window buffer management against the real device arena.
	if e.Feat.UserLevelMemMgmt {
		pool, err := mem.NewRoundRobinPool(machine.GPUMem, r.tensorBytes, (bufWindow+1)*tensorsPerLayer)
		if err == nil {
			r.pool = pool
			r.layerBuf = make(map[int][]int)
		}
		// A nil pool (arena contention in exotic configs) degrades to
		// un-instrumented buffers; the Footprint check remains the
		// capacity authority.
	} else {
		r.cache = mem.NewCachingAllocator(machine.GPUMem)
		r.layerCache = make(map[int][]*mem.Block)
	}
	r.optDone = make([]*sim.Signal, r.n)
	r.nvmeStaged = make([]*sim.Signal, r.n)
	for i := range r.optDone {
		r.optDone[i] = sim.FiredSignal(machine.Eng)
		r.nvmeStaged[i] = sim.FiredSignal(machine.Eng)
	}
	// The first window's layers are resident before training starts
	// (§III-E1), holding their buffers.
	for i := 0; i < window && i < r.n; i++ {
		if err := r.acquireLayer(i); err != nil && r.schedErr == nil {
			r.schedErr = err
		}
	}
	return r
}

// planFor returns the cached, validated schedule for a window size,
// planning it on first use. Validation runs on every plan, planner-built
// or injected through the test hooks, and costs time linear in the plan
// size; a build or validation failure records schedErr.
func (r *iterRun) planFor(window int) *plan.Iteration {
	if p, ok := r.plans[window]; ok {
		return p
	}
	p := r.e.planOverride
	if p == nil {
		spec := r.e.planSpec(window, len(r.streams), r.optFrac)
		spec.BudgetSlots = r.bufWindow + 1
		var err error
		if p, err = plan.Build(spec); err != nil {
			if r.schedErr == nil {
				r.schedErr = err
			}
			return nil
		}
	}
	if !r.e.planSkipValidate {
		if err := plan.Validate(p); err != nil {
			if r.schedErr == nil {
				r.schedErr = err
			}
			return nil
		}
	}
	r.plans[window] = p
	return p
}

// acquireLayer claims device buffers for a layer entering the window.
// In user-level mode exhaustion is a scheduling-invariant violation
// (the buffer-recycling dependencies exist precisely to prevent it,
// and plan.Validate proves planner-built schedules cannot hit it); it
// is reported as a structured error, not a crash. In caching mode an
// exhausted arena triggers a cache flush — the §III-E3 thrash — before
// retrying.
func (r *iterRun) acquireLayer(layer int) error {
	switch {
	case r.pool != nil:
		idxs := make([]int, 0, tensorsPerLayer)
		for t := 0; t < tensorsPerLayer; t++ {
			idx, err := r.pool.Acquire()
			if err != nil {
				for _, held := range idxs {
					r.pool.Release(held)
				}
				return fmt.Errorf("core: window buffer invariant violated at layer %d: %w", layer, err)
			}
			idxs = append(idxs, idx)
		}
		// Append rather than assign: on a validated plan the layer holds
		// nothing here, but a validation-bypassed double acquire must not
		// orphan in-use buffers or teardown's accounting breaks.
		r.layerBuf[layer] = append(r.layerBuf[layer], idxs...)
	case r.cache != nil:
		var blocks []*mem.Block
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
		r.layerCache[layer] = append(r.layerCache[layer], blocks...)
	}
	r.noteOccupancy()
	return nil
}

// noteOccupancy samples the working-window occupancy timeline: how many
// layers currently hold device buffers.
func (r *iterRun) noteOccupancy() {
	mc := r.e.Metrics
	if mc == nil {
		return
	}
	held := 0
	switch {
	case r.pool != nil:
		held = len(r.layerBuf)
	case r.cache != nil:
		held = len(r.layerCache)
	}
	mc.WindowOccupancy(r.machine.Eng.Now(), held)
}

// releaseLayer returns a layer's buffers as it leaves the window.
func (r *iterRun) releaseLayer(layer int) {
	switch {
	case r.pool != nil:
		for _, idx := range r.layerBuf[layer] {
			r.pool.Release(idx)
		}
		delete(r.layerBuf, layer)
	case r.cache != nil:
		for _, b := range r.layerCache[layer] {
			r.cache.Put(b)
		}
		delete(r.layerCache, layer)
	}
	r.noteOccupancy()
}

func (r *iterRun) copyOp(deps []*sim.Signal, tr *trace.Trace, name string, layer int, h2d bool, bytes int64) *sim.Signal {
	pinned := r.e.Feat.UserLevelMemMgmt
	extra := sim.Time(0)
	if !pinned {
		// Caching-allocator path: per-tensor allocation operations with
		// implicit synchronization (§III-E3).
		extra = sim.Time(tensorsPerLayer) * sim.Time(r.e.Model.Plat.AllocOpNS)
	}
	var sig *sim.Signal
	done := func(start, end sim.Time) {
		if tr != nil {
			kind := trace.KindD2H
			track := "pcie-d2h"
			if h2d {
				kind, track = trace.KindH2D, "pcie-h2d"
			}
			tr.Add(trace.Span{Track: track, Name: name, Kind: kind, Layer: layer, Start: start, End: end})
		}
		if mc := r.e.Metrics; mc != nil {
			// Core issues its PCIe copies on the raw queues rather than
			// through the machine's Copy helpers, so the byte accounting
			// the machine-level TransferObserver would do happens here.
			channel := "pcie.d2h"
			if h2d {
				channel = "pcie.h2d"
			}
			mc.Transfer(channel, bytes, start, end)
		}
	}
	eng := r.machine.Eng
	res := r.machine.D2H
	if h2d {
		res = r.machine.H2D
	}
	dur := r.machine.Spec.AsyncCallNS + extra + r.copyDur(bytes, pinned)
	sig = sim.NewSignal(eng)
	sim.WaitAll(eng, deps, func() {
		if r.inj == nil {
			res.Submit(dur, func(start, end sim.Time) {
				done(start, end)
				sig.Fire()
			})
			return
		}
		// Degraded mode: the copy may hit a blackout window and retry
		// with virtual-time backoff; its observed time feeds the
		// adaptive re-solve.
		tg := fault.D2H
		if h2d {
			tg = fault.H2D
		}
		r.submitWithRetry(res, tg, dur, func(start, end, delayed sim.Time) {
			r.observeCopy(name, dur, start, end, delayed)
			done(start, end)
			sig.Fire()
		})
	})
	return sig
}

func (r *iterRun) copyDur(bytes int64, pinned bool) sim.Time {
	bw := r.machine.Spec.PCIe.BandwidthPerDir
	if !pinned {
		bw *= r.machine.Spec.PCIe.UnpinnedFactor
	}
	return r.machine.Spec.PCIe.LatencyNS + sim.Time(float64(bytes)/bw*1e9)
}

// cpuOptDuration is one layer's CPU Adam time for the configured pool.
func (e *Engine) cpuOptDuration() sim.Time {
	spec := e.Model.Plat.CPU
	workers := e.optWorkers()
	perWorkerBW := spec.MemBandwidth / float64(workers)
	if perCore := perWorkerCap(spec); perWorkerBW > perCore {
		perWorkerBW = perCore
	}
	const bytesPerParam = 28
	return sim.Time(float64(e.Model.Cfg.LayerParamsShard()*bytesPerParam) / perWorkerBW * 1e9)
}

// perWorkerCap is the DRAM bandwidth a single optimizer thread can
// drive: roughly 1/32 of socket bandwidth (~3 GB/s on the V100 host),
// matching measured single-threaded CPU Adam throughput — this is why a
// lone CPU optimizer becomes the bottleneck §III-E1 removes.
func perWorkerCap(spec hw.CPUSpec) float64 {
	return spec.MemBandwidth / 32
}

// iteration schedules one full training iteration by walking its plan
// through the simulation environment, and returns the signal marking
// its completion (all GPU work done). The plan's canonical op order is
// the exact issue order the hand-wired scheduler used, so traces stay
// byte-identical across the planner/executor split.
func (r *iterRun) iteration(tr *trace.Trace) *sim.Signal {
	r.iter++
	eng := r.machine.Eng
	p := r.planFor(r.window)
	if p == nil {
		return sim.FiredSignal(eng) // schedErr recorded; nothing to schedule
	}
	sigs := plan.Execute(p, &schedEnv{r: r, tr: tr})
	// Resident head-of-model layers update on the GPU ("gpu adam
	// resident", the plan's final op); their optDone just re-arms.
	for i := 0; i < r.window && i < r.n; i++ {
		r.optDone[i] = sim.FiredSignal(eng)
	}
	// Iteration completes when every stream's queue drains and the
	// resident update lands.
	endDeps := []*sim.Signal{sigs[len(sigs)-1]}
	for _, s := range r.streams {
		endDeps = append(endDeps, s.Barrier())
	}
	return joinSignals(eng, endDeps)
}

// schedEnv runs plan ops on the simulated machine: kernels on GPU
// streams, copies on the PCIe queues (with degraded-mode retries),
// optimizer steps on the CPU pool, staging on the NVMe queue, and
// buffer ops against the §III-E3 pool. One env per iteration carries
// that iteration's trace sink.
type schedEnv struct {
	r  *iterRun
	tr *trace.Trace
}

func (ev *schedEnv) Resolve(d plan.ExtDep) *sim.Signal {
	switch d.Kind {
	case plan.ExtOptDone:
		return ev.r.optDone[d.Layer]
	case plan.ExtNVMeStaged:
		return ev.r.nvmeStaged[d.Layer]
	case plan.ExtResident:
		// Non-nil only after a mid-run window grow whose prefetch may
		// still be in flight; steady-state residency needs no gate.
		return ev.r.residentReady[d.Layer]
	}
	return nil
}

func (ev *schedEnv) Export(op *plan.Op, sig *sim.Signal) {
	r := ev.r
	switch op.Export {
	case plan.ExtOptDone:
		r.optDone[op.Layer] = sig
		if op.Kind == plan.Offload {
			// Window shrink: the eviction offload replaces the layer's
			// update signal and ends its grow-gated residency.
			delete(r.residentReady, op.Layer)
		}
	case plan.ExtNVMeStaged:
		r.nvmeStaged[op.Layer] = sig
	case plan.ExtResident:
		r.residentReady[op.Layer] = sig
	}
}

func (ev *schedEnv) Issue(op *plan.Op, deps []*sim.Signal) *sim.Signal {
	r := ev.r
	eng := r.machine.Eng
	switch op.Kind {
	case plan.ComputeFP, plan.ComputeBP:
		return r.kernel(r.streams[op.Queue], op.Flops, deps, op.Name, op.Layer, trace.KindCompute, ev.tr)
	case plan.OptStep:
		if op.GPU {
			return r.kernel(r.streams[op.Queue], op.Flops, deps, op.Name, op.Layer, trace.KindOptimize, ev.tr)
		}
		return r.cpuOpt(op.Name, op.Layer, op.DurNS, deps, ev.tr)
	case plan.Prefetch:
		return r.copyOp(deps, ev.tr, op.Name, op.Layer, true, op.Bytes)
	case plan.Offload:
		return r.copyOp(deps, ev.tr, op.Name, op.Layer, false, op.Bytes)
	case plan.NVMeStage:
		if op.Write {
			return r.machine.NVMeWrite(op.Bytes, deps)
		}
		return r.machine.NVMeRead(op.Bytes, deps)
	case plan.BufAcquire:
		layer := op.Layer
		sig := sim.NewSignal(eng)
		sim.WaitAll(eng, deps, func() {
			if err := r.acquireLayer(layer); err != nil && r.schedErr == nil {
				r.schedErr = err
			}
			sig.Fire()
		})
		return sig
	case plan.BufRelease:
		layer := op.Layer
		sig := sim.NewSignal(eng)
		sim.WaitAll(eng, deps, func() {
			r.releaseLayer(layer)
			sig.Fire()
		})
		return sig
	case plan.Join:
		return joinSignals(eng, deps)
	}
	if r.schedErr == nil {
		r.schedErr = fmt.Errorf("core: plan op %d has unknown kind %d", op.ID, op.Kind)
	}
	return sim.FiredSignal(eng)
}

// kernel launches flops of work on a stream and records its span.
func (r *iterRun) kernel(s *hw.Stream, flops float64, deps []*sim.Signal, name string, layer int, kind trace.Kind, tr *trace.Trace) *sim.Signal {
	return s.Launch(flops, r.util, deps, func(start, end sim.Time) {
		if tr != nil {
			tr.Add(trace.Span{Track: s.Name(), Name: name, Kind: kind, Layer: layer, Start: start, End: end})
		}
	})
}

// cpuOpt submits one layer's Adam update to the optimizer pool (or the
// single serialized optimizer when §III-E1 is off).
func (r *iterRun) cpuOpt(name string, layer int, dur sim.Time, deps []*sim.Signal, tr *trace.Trace) *sim.Signal {
	eng := r.machine.Eng
	sig := sim.NewSignal(eng)
	record := func(start, end sim.Time) {
		if tr != nil {
			tr.Add(trace.Span{Track: "cpu-opt", Name: name, Kind: trace.KindOptimize, Layer: layer, Start: start, End: end})
		}
		if mc := r.e.Metrics; mc != nil {
			mc.OptDone(end)
		}
		sig.Fire()
	}
	sim.WaitAll(eng, deps, func() {
		if mc := r.e.Metrics; mc != nil {
			mc.OptQueued(eng.Now())
		}
		if r.singleOpt != nil {
			r.singleOpt.Submit(dur, record)
		} else {
			r.machine.CPUPool.Submit(dur, record)
		}
	})
	return sig
}

// gpuOptFlops converts the HBM-bound resident-layer update into
// equivalent kernel work at the given utilization.
func (e *Engine) gpuOptFlops(util float64) float64 {
	const bytesPerParam = 28
	bytes := float64(e.Model.Cfg.LayerParamsShard() * bytesPerParam)
	sec := bytes / e.Model.Plat.GPU.MemBandwidth
	return sec * util * e.Model.Plat.GPU.PeakFlops
}

func (e *Engine) gpuEmbedOptFlops(util float64) float64 {
	const bytesPerParam = 28
	bytes := float64(e.Model.Cfg.EmbeddingParams() / int64(e.Model.Cfg.ModelParallel) * bytesPerParam)
	sec := bytes / e.Model.Plat.GPU.MemBandwidth
	return sec * util * e.Model.Plat.GPU.PeakFlops
}

// joinSignals returns a signal firing when all inputs fire.
func joinSignals(eng *sim.Engine, sigs []*sim.Signal) *sim.Signal {
	if len(sigs) == 1 {
		return sigs[0]
	}
	out := sim.NewSignal(eng)
	sim.WaitAll(eng, sigs, out.Fire)
	return out
}
