// Package workload generates the host-time benchmark's inputs from a
// seed and exposes every simulation it runs as staged closures. It
// never reads the clock and starts no goroutines: the benchmark
// command above it times the closures and drives the load, so this
// package stays inside the simulator's determinism rules
// (stronghold-vet's wallclock and enginepure scopes) — the same split
// internal/bench and cmd/stronghold-bench use.
package workload

import (
	"fmt"

	"stronghold"
	"stronghold/internal/baselines"
	"stronghold/internal/bench"
	"stronghold/internal/core"
	"stronghold/internal/hw"
	"stronghold/internal/metrics"
	"stronghold/internal/modelcfg"
	"stronghold/internal/perf"
	"stronghold/internal/plan"
	"stronghold/internal/sim"
	"stronghold/internal/tensor"
	"stronghold/internal/trace"
)

// Workload names, in the order BENCHMARK.json lists them.
const (
	SweepScale = "sweep-scale"
	SweepSuite = "sweep-suite"
	ServeHot   = "serve-hot"
	ServeCold  = "serve-cold"
)

// Names lists every workload.
var Names = []string{SweepScale, SweepSuite, ServeHot, ServeCold}

// Layers, in module names. A span's layer says which module's public
// function the benchmark called.
const (
	LayerServe     = "serve"
	LayerBackend   = "backend"
	LayerSolve     = "core.solve"
	LayerBuild     = "plan.build"
	LayerValidate  = "plan.validate"
	LayerEngine    = "engine"
	LayerBaselines = "baselines"
)

// iters is the simulated iteration count per run, the one
// stronghold.Simulate and internal/bench use.
const iters = 3

// rngFor derives an independent generator for one purpose (stream) of
// one seed, so adding draws to one stream never shifts another.
func rngFor(seed uint64, stream ...uint64) *tensor.RNG {
	s := tensor.NewRNG(seed).Uint64()
	for _, x := range stream {
		s = tensor.NewRNG(s ^ x).Uint64()
	}
	return tensor.NewRNG(s)
}

// shuffle permutes idx in place (Fisher-Yates).
func shuffle(r *tensor.RNG, idx []int) {
	for i := len(idx) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		idx[i], idx[j] = idx[j], idx[i]
	}
}

// Sim is one simulation: a method on a resolved model configuration,
// with the engine settings the workload's own call uses. Its methods
// are the staged closures the benchmark times one layer at a time.
type Sim struct {
	Name    string
	Method  modelcfg.Method
	Cfg     modelcfg.Config
	Plat    hw.Platform
	Feat    core.Features // core-engine methods only
	CoOpt   bool
	Metrics bool // attach a metrics collector to the run
}

// Core reports whether the method runs on the STRONGHOLD engine (the
// other plan-driven methods run in internal/baselines).
func (s Sim) Core() bool {
	info := modelcfg.Lookup(s.Method)
	return info != nil && info.Engine == modelcfg.EngineCore
}

func (s Sim) engine(workers int, collect bool) *core.Engine {
	e := core.NewEngine(perf.NewModel(s.Cfg, s.Plat))
	e.Feat = s.Feat
	e.CoOpt = s.CoOpt
	e.Workers = workers
	if collect {
		e.Metrics = metrics.New()
	}
	return e
}

// Solve is the core.solve stage: Engine.SolvedDecision.
func (s Sim) Solve() error {
	_, err := s.engine(1, false).SolvedDecision()
	return err
}

// Build is the plan.build stage for core methods (Engine.BuildPlan)
// and baselines.PlanFor, which also validates, for the others.
func (s Sim) Build() (*plan.Iteration, error) {
	if !s.Core() {
		return baselines.PlanFor(s.Method, perf.NewModel(s.Cfg, s.Plat))
	}
	return s.engine(1, false).BuildPlan(0)
}

// Run is the engine stage: Engine.Run with a trace recorder on the
// serial engine, as stronghold.Simulate and internal/bench call it, or
// baselines.Run.
func (s Sim) Run() perf.IterationResult { return s.RunWith(1, s.Metrics) }

// RunWith is Run on the given sim worker count, with or without a
// metrics collector (core methods; baselines ignore both).
func (s Sim) RunWith(workers int, collect bool) perf.IterationResult {
	if !s.Core() {
		return baselines.Run(s.Method, perf.NewModel(s.Cfg, s.Plat))
	}
	return s.engine(workers, collect).Run(iters, trace.New())
}

// Outcome is what one op's call returns. Both fields are comparable,
// so a repeat of a config must reproduce its first outcome with ==.
type Outcome struct {
	Sim   stronghold.SimResult
	Bench bench.Scenario
}

// Op is one call a sweep workload makes, plus the Sim that decomposes
// the same simulation into stages.
type Op struct {
	Name  string
	Layer string // the layer the call enters
	Sim   Sim
	Call  func() (Outcome, error)
}

// Mirrors reports whether r, the result of the op's Sim.Run, is the
// simulation the op's own call reported as out — the proof that the
// staged closures time the same work the workload runs.
func (o Op) Mirrors(out Outcome, r perf.IterationResult) bool {
	if o.Layer == LayerBackend {
		return out.Sim.OOM == r.OOM && out.Sim.IterSeconds == sim.Seconds(r.IterTime)
	}
	b := out.Bench
	return b.IterTimeNS == int64(r.IterTime) && b.Steps == r.Steps && b.MetricSamples == r.MetricSamples
}

// Sweep is a closed-loop simulation workload: passes over a fixed set
// of ops, each pass in its own seeded order.
type Sweep struct {
	Ops  []Op
	seed uint64
}

// Pass returns the order of the pass-th pass: every op once.
func (s *Sweep) Pass(pass int) []int {
	idx := make([]int, len(s.Ops))
	for i := range idx {
		idx[i] = i
	}
	shuffle(rngFor(s.seed, streamPass, uint64(pass)), idx)
	return idx
}

// RNG stream identifiers, one per purpose.
const (
	streamPass = iota + 1
	streamScale
	streamHotSet
	streamHotReq
	streamCold
	streamColdCap
	streamColdSize
)

// Scale depths and shape: STRONGHOLD at hidden 256 and batch 4, where
// plan build and validation dominate and their all-pairs bitsets are
// far larger than the CPU caches.
var scaleDepths = []int{500, 1000, 2000}

const (
	scaleHidden   = 256
	scaleBatch    = 4
	scalePerDepth = 4 // one of them on the NVMe tier
)

// NewSweepScale builds the sweep-scale workload: per depth four
// configs, each a seeded 0–4% deeper than the depth, one of them with
// the NVMe tier. Every pass runs all twelve, so each pass has the same
// mix of depths and tiers.
func NewSweepScale(seed uint64) (*Sweep, error) {
	r := rngFor(seed, streamScale)
	s := &Sweep{seed: seed}
	for _, d := range scaleDepths {
		for v := 0; v < scalePerDepth; v++ {
			cfg := stronghold.SimConfig{
				Layers:    d + r.Intn(d/25),
				Hidden:    scaleHidden,
				BatchSize: scaleBatch,
				Method:    stronghold.Stronghold,
			}
			if v == 0 {
				cfg.Method = stronghold.StrongholdNVMe
			}
			sm, err := simFor(cfg.Method, modelcfg.ConfigSpec{Layers: cfg.Layers, Hidden: cfg.Hidden, BatchSize: cfg.BatchSize}, hw.V100Platform(), false)
			if err != nil {
				return nil, err
			}
			s.Ops = append(s.Ops, Op{
				Name:  sm.Name,
				Layer: LayerBackend,
				Sim:   sm,
				Call: func() (Outcome, error) {
					res, err := stronghold.Simulate(cfg)
					return Outcome{Sim: res}, err
				},
			})
		}
	}
	return s, nil
}

// simFor resolves a method on a config spec into a Sim with the
// method's default engine features.
func simFor(m modelcfg.Method, spec modelcfg.ConfigSpec, plat hw.Platform, coopt bool) (Sim, error) {
	cfg, err := spec.Resolve()
	if err != nil {
		return Sim{}, err
	}
	info := modelcfg.Lookup(m)
	if info == nil {
		return Sim{}, fmt.Errorf("workload: unknown method %v", m)
	}
	feat := core.DefaultFeatures()
	feat.UseNVMe = info.NVMe
	return Sim{
		Name:   fmt.Sprintf("%s-l%d-h%d-b%d", info.Key, cfg.Layers, cfg.Hidden, cfg.BatchSize),
		Method: m,
		Cfg:    cfg,
		Plat:   plat,
		Feat:   feat,
		CoOpt:  coopt,
	}, nil
}

// suiteSim mirrors one internal/bench suite scenario as a Sim. The
// mirror is checked, not trusted: the benchmark compares each staged
// run with the suite's own result (Op.Mirrors).
func suiteSim(name string) (Sim, bool) {
	cfg1p7 := modelcfg.Config1p7B()
	cfg4b := modelcfg.ConfigForSize(4, 2560, 1)
	strong := func(cfg modelcfg.Config, feat core.Features) Sim {
		return Sim{Name: name, Method: modelcfg.Stronghold, Cfg: cfg, Plat: hw.V100Platform(), Feat: feat, Metrics: true}
	}
	base := func(m modelcfg.Method) Sim {
		return Sim{Name: name, Method: m, Cfg: cfg1p7, Plat: hw.V100Platform()}
	}
	multi := core.DefaultFeatures()
	multi.Streams = 2
	nvme := core.DefaultFeatures()
	nvme.UseNVMe = true
	switch name {
	case "stronghold-1p7b":
		return strong(cfg1p7, core.DefaultFeatures()), true
	case "stronghold-1p7b-multistream":
		return strong(cfg1p7, multi), true
	case "stronghold-4b":
		return strong(cfg4b, core.DefaultFeatures()), true
	case "stronghold-4b-nvme":
		s := strong(cfg4b, nvme)
		s.Method = modelcfg.StrongholdNVMe
		return s, true
	case "baseline-no-opt-1p7b":
		return strong(cfg1p7, core.Features{Streams: 1}), true
	case "l2l-1p7b":
		return base(modelcfg.L2L), true
	case "zero-offload-1p7b":
		return base(modelcfg.ZeROOffload), true
	case "zero-infinity-1p7b":
		return base(modelcfg.ZeROInfinity), true
	case "interleaved-opt-1p7b":
		return base(modelcfg.InterleavedOpt), true
	}
	return Sim{}, false
}

// NewSweepSuite builds the sweep-suite workload: the internal/bench
// suite scenarios on the serial engine, metrics collector attached
// where the suite attaches it, in a seeded order per pass.
func NewSweepSuite(seed uint64) (*Sweep, error) {
	s := &Sweep{seed: seed}
	for _, c := range bench.Suite() {
		sm, ok := suiteSim(c.Name)
		if !ok {
			return nil, fmt.Errorf("workload: bench suite scenario %q has no mirror in the benchmark", c.Name)
		}
		layer := LayerEngine
		if !sm.Core() {
			layer = LayerBaselines
		}
		s.Ops = append(s.Ops, Op{
			Name:  c.Name,
			Layer: layer,
			Sim:   sm,
			Call:  func() (Outcome, error) { return Outcome{Bench: c.Run(1)}, nil },
		})
	}
	return s, nil
}
