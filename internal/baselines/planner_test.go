package baselines

import (
	"reflect"
	"testing"

	"stronghold/internal/fault"
	"stronghold/internal/modelcfg"
	"stronghold/internal/perf"
	"stronghold/internal/plan"
	"stronghold/internal/sim"
	"stronghold/internal/trace"
)

func pressureFor(method modelcfg.Method, m perf.Model) float64 {
	fp := modelcfg.Footprint(method, m.Cfg, 0, 1)
	return pressurePenalty(float64(fp.GPU) / float64(m.Plat.GPU.MemBytes))
}

// Every baseline planner output must pass the validator — the same
// pre-simulation gate the STRONGHOLD engine's plans go through.
func TestBaselinePlansValidate(t *testing.T) {
	for _, cfg := range []modelcfg.Config{modelcfg.Config1p7B(), modelcfg.Config4B()} {
		m := v100Model(cfg)
		for name, it := range map[string]*plan.Iteration{
			"megatron-lm":  megatronPlan(m),
			"l2l":          l2lPlan(m, pressureFor(modelcfg.L2L, m)),
			"zero-offload": zeroOffloadPlan(m, pressureFor(modelcfg.ZeROOffload, m)),
		} {
			if err := plan.Validate(it); err != nil {
				t.Errorf("%s plan (%d layers) invalid: %v", name, cfg.Layers, err)
			}
		}
	}
}

// Every baseline planner reserves its plan's exact size from the closed
// form PlanSize, as Build does for STRONGHOLD (TestBuildPresized): the op
// list and the dependency arenas end with no spare capacity.
func TestPlannersPresized(t *testing.T) {
	methods := []modelcfg.Method{modelcfg.Megatron, modelcfg.L2L, modelcfg.ZeROOffload,
		modelcfg.ZeROInfinity, modelcfg.ZeROInfinityNVMe, modelcfg.InterleavedOpt}
	for n := 1; n <= 64; n++ {
		m := v100Model(modelcfg.NewConfig(n, 1024, 16))
		for _, method := range methods {
			it, err := methodPlan(method, m, 1)
			if err != nil {
				t.Fatal(err)
			}
			want := PlanSize(method, n)
			var deps, exts int
			for i := range it.Ops {
				deps += it.Ops[i].Deps.Len()
				exts += it.Ops[i].Ext.Len()
			}
			// The arenas are unexported; reflection reads their capacity.
			arena := reflect.ValueOf(&it.Graph).Elem()
			got := plan.Size{Ops: len(it.Ops), Deps: deps, Ext: exts}
			caps := plan.Size{Ops: cap(it.Ops), Deps: arena.FieldByName("deps").Cap(), Ext: arena.FieldByName("ext").Cap()}
			if got != want || caps != want {
				t.Errorf("%s at %d layers: size %+v (capacity %+v), closed form says %+v", method, n, got, caps, want)
			}
		}
	}
}

// Megatron's plan is one FIFO queue of kernels and GPU updates, so its
// makespan is exactly the closed form's sum, with nothing to overlap.
func TestMegatronPlanMatchesClosedForm(t *testing.T) {
	for _, cfg := range []modelcfg.Config{modelcfg.Config1p7B(), goldenConfig()} {
		m := v100Model(cfg)
		r := Run(modelcfg.Megatron, m)
		if r.OOM {
			t.Fatalf("%d layers: %s", cfg.Layers, r.OOMDetail)
		}
		if want := megatronIter(m); r.IterTime != want {
			t.Errorf("%d layers: planned Megatron %d ns, closed form %d ns", cfg.Layers, r.IterTime, want)
		}
		if r.Overlap != 1 || r.Util.H2D != 0 || r.Util.Compute != 1 {
			t.Errorf("%d layers: overlap %v, H2D util %v, compute util %v; want 1, 0, 1",
				cfg.Layers, r.Overlap, r.Util.H2D, r.Util.Compute)
		}
	}
}

// The L2L closed form prices the gradient copy-back fully serial; the
// plan hides it under the next visit's overhead. The simulated time is
// therefore bracketed: at least closed-form minus the n copy-backs
// (the serial critical path), at most the closed form itself.
func TestL2LPlanBracketsClosedForm(t *testing.T) {
	m := v100Model(modelcfg.Config1p7B())
	p := pressureFor(modelcfg.L2L, m)
	got := Run(modelcfg.L2L, m).IterTime
	closed := l2lIter(m, p)
	g2c := sim.Time(float64(m.Layer().G2C) / m.Plat.PCIe.UnpinnedFactor)
	lower := closed - sim.Time(m.Cfg.Layers)*g2c
	if got < lower || got > closed {
		t.Fatalf("planned L2L %.3fs outside [%.3fs, %.3fs]",
			float64(got)/1e9, float64(lower)/1e9, float64(closed)/1e9)
	}
}

// ZeRO-Offload's gradient stream fits under the backward kernels on the
// evaluation models, so the plan-driven time must land on the closed
// form (compute + optimizer + upload) almost exactly.
func TestZeroOffloadPlanMatchesClosedForm(t *testing.T) {
	for _, cfg := range []modelcfg.Config{modelcfg.Config1p7B(), modelcfg.Config4B()} {
		m := v100Model(cfg)
		p := pressureFor(modelcfg.ZeROOffload, m)
		got := Run(modelcfg.ZeROOffload, m).IterTime
		closed := zeroOffloadIter(m, p)
		if diff := float64(got-closed) / float64(closed); diff < -0.02 || diff > 0.02 {
			t.Fatalf("planned ZeRO-Offload %.3fs vs closed form %.3fs (%+.1f%%)",
				float64(got)/1e9, float64(closed)/1e9, 100*diff)
		}
	}
}

// Plan-driven baselines report a measured overlap fraction from their
// traces: L2L hides roughly a third of its transfer volume (the
// gradient copy-back of its three per-layer copies), ZeRO-Offload about
// half (gradients hidden, the parameter upload exposed).
func TestPlannedBaselineOverlap(t *testing.T) {
	m := v100Model(modelcfg.Config1p7B())
	l2l := Run(modelcfg.L2L, m)
	if l2l.Overlap < 0.2 || l2l.Overlap > 0.45 {
		t.Errorf("L2L overlap %.3f, want ≈1/3", l2l.Overlap)
	}
	if l2l.PlanOps == 0 {
		t.Error("L2L result missing plan length")
	}
	zo := Run(modelcfg.ZeROOffload, m)
	if zo.Overlap < 0.35 || zo.Overlap > 0.65 {
		t.Errorf("ZeRO-Offload overlap %.3f, want ≈1/2", zo.Overlap)
	}
	if zo.PlanOps == 0 {
		t.Error("ZeRO-Offload result missing plan length")
	}
}

// Two runs of the same configuration must be event-for-event identical.
func TestPlannedBaselineDeterminism(t *testing.T) {
	m := v100Model(modelcfg.Config1p7B())
	for _, meth := range []modelcfg.Method{modelcfg.L2L, modelcfg.ZeROOffload} {
		a, b := Run(meth, m), Run(meth, m)
		if a.IterTime != b.IterTime || a.Steps != b.Steps {
			t.Errorf("%s not deterministic: %d/%d steps vs %d/%d", meth,
				a.IterTime, a.Steps, b.IterTime, b.Steps)
		}
		if a.Steps == 0 {
			t.Errorf("%s reports no simulation steps: not event-driven?", meth)
		}
	}
}

// Fault plans degrade plan-driven baselines: a PCIe slow window must
// lengthen the iteration, deterministically.
func TestPlannedBaselineUnderFaults(t *testing.T) {
	m := v100Model(modelcfg.Config1p7B())
	faults := &fault.Plan{Rules: []fault.Rule{{
		Target: fault.H2D, Kind: fault.Slow, Factor: 0.25,
		At: 0, Dur: sim.FromSeconds(30), Every: sim.FromSeconds(60), Count: 20,
	}}}
	if err := faults.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, meth := range []modelcfg.Method{modelcfg.L2L, modelcfg.ZeROOffload} {
		clean := Run(meth, m)
		hurt := RunWith(meth, faultedEngine(m, faults), nil)
		if hurt.OOM {
			t.Fatalf("%s faulted run failed: %s", meth, hurt.OOMDetail)
		}
		if hurt.IterTime <= clean.IterTime {
			t.Errorf("%s: slow H2D did not lengthen the iteration (%d vs %d)",
				meth, hurt.IterTime, clean.IterTime)
		}
		again := RunWith(meth, faultedEngine(m, faults), nil)
		if again.IterTime != hurt.IterTime {
			t.Errorf("%s faulted run not deterministic", meth)
		}
	}
}

// The traced spans account for the whole simulated iteration: the last
// span ends at the reported iteration time.
func TestPlannedBaselineTrace(t *testing.T) {
	m := v100Model(modelcfg.Config1p7B())
	tr := trace.New()
	r := RunWith(modelcfg.L2L, faultedEngine(m, nil), tr)
	if tr.Len() == 0 {
		t.Fatal("no spans recorded")
	}
	if tr.Makespan() != r.IterTime {
		t.Fatalf("trace makespan %d vs iteration time %d", tr.Makespan(), r.IterTime)
	}
	kinds := map[trace.Kind]bool{}
	for _, s := range tr.Spans() {
		kinds[s.Kind] = true
	}
	for _, k := range []trace.Kind{trace.KindCompute, trace.KindH2D, trace.KindD2H, trace.KindOptimize} {
		if !kinds[k] {
			t.Errorf("trace missing %s spans", k)
		}
	}
}
