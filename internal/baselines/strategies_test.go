package baselines

import (
	"testing"

	"stronghold/internal/core"
	"stronghold/internal/fault"
	"stronghold/internal/modelcfg"
	"stronghold/internal/sim"
	"stronghold/internal/trace"
)

// Every strategy planner output must pass the validator, including the
// NVMe ring and fractional-placement proofs the new plans exercise.
func TestStrategyPlansValidate(t *testing.T) {
	for _, cfg := range []modelcfg.Config{modelcfg.Config1p7B(), modelcfg.Config4B()} {
		m := v100Model(cfg)
		for _, meth := range []modelcfg.Method{
			modelcfg.ZeROInfinity, modelcfg.ZeROInfinityNVMe, modelcfg.InterleavedOpt,
		} {
			it, err := PlanFor(meth, m)
			if err != nil {
				t.Errorf("%s plan (%d layers): %v", meth, cfg.Layers, err)
				continue
			}
			if meth == modelcfg.ZeROInfinityNVMe && (!it.NVMe || it.RingSlots != 2) {
				t.Errorf("%s plan must declare the 2-slot staging ring, got nvme=%v ring=%d",
					meth, it.NVMe, it.RingSlots)
			}
			if meth == modelcfg.InterleavedOpt && it.OptSlots != 2 {
				t.Errorf("%s plan must declare the 2-slot moment staging budget, got %d",
					meth, it.OptSlots)
			}
		}
	}
}

// PlanFor only serves baseline methods; the core-engine and cluster
// registry rows are rejected, as is Run when asked to run a cluster
// method. Run serves the core-engine rows by running core.Engine with
// default features, exactly as a caller building the engine would.
func TestStrategyDispatchRejectsNonBaseline(t *testing.T) {
	m := v100Model(modelcfg.Config1p7B())
	for _, meth := range []modelcfg.Method{modelcfg.Stronghold, modelcfg.ZeRO2} {
		if _, err := PlanFor(meth, m); err == nil {
			t.Errorf("PlanFor(%s) must fail", meth)
		}
	}
	for _, meth := range []modelcfg.Method{modelcfg.ZeRO2, modelcfg.ZeRO3} {
		if r := Run(meth, m); !r.OOM {
			t.Errorf("Run(%s) must report the method unsupported", meth)
		}
	}
	faults, err := fault.ParsePlan("h2d:drop(at=0s,dur=20ms,every=100ms)")
	if err != nil {
		t.Fatal(err)
	}
	for _, meth := range []modelcfg.Method{modelcfg.Stronghold, modelcfg.StrongholdNVMe} {
		e := core.NewEngine(m)
		e.Feat.UseNVMe = meth == modelcfg.StrongholdNVMe
		e.Faults = faults
		if got, want := RunWith(meth, faultedEngine(m, faults), nil), e.Run(3, nil); got != want || got.OOM {
			t.Errorf("RunWith(%s) = %+v, want core.Engine's %+v", meth, got, want)
		}
	}
}

// The event-driven ZeRO-Infinity schedule tracks its closed form: the
// closed form's steady-state max() hides the pipeline fill and the
// host-loop serialization the executed plan actually pays, so the plan
// lands slightly above it — within 10% — at every model size.
func TestZeroInfinityPlanTracksClosedForm(t *testing.T) {
	for _, cfg := range []modelcfg.Config{modelcfg.Config1p7B(), modelcfg.Config4B()} {
		m := v100Model(cfg)
		got := Run(modelcfg.ZeROInfinity, m)
		if got.OOM {
			t.Fatalf("%d layers: %s", cfg.Layers, got.OOMDetail)
		}
		closed := zeroInfinityIter(m, pressureFor(modelcfg.ZeROInfinity, m), false)
		ratio := float64(got.IterTime) / float64(closed)
		if ratio < 1.0 || ratio > 1.10 {
			t.Errorf("%d layers: plan %d vs closed form %d (ratio %.4f outside [1.0,1.10])",
				cfg.Layers, got.IterTime, closed, ratio)
		}
	}
}

// In NVMe mode the demand paging serializes with compute, so the plan
// reproduces the closed form's additive I/O term — and the collapse the
// paper measures: the staged I/O dominates the iteration.
func TestZeroInfinityNVMePlanTracksClosedForm(t *testing.T) {
	m := v100Model(modelcfg.Config39p5B())
	got := Run(modelcfg.ZeROInfinityNVMe, m)
	if got.OOM {
		t.Fatal(got.OOMDetail)
	}
	closed := zeroInfinityIter(m, pressureFor(modelcfg.ZeROInfinityNVMe, m), true)
	ratio := float64(got.IterTime) / float64(closed)
	if ratio < 0.90 || ratio > 1.05 {
		t.Errorf("plan %d vs closed form %d (ratio %.4f outside [0.90,1.05])", got.IterTime, closed, ratio)
	}
	// The I/O term, not compute, must own the iteration.
	compute := computeTotal(m)
	if got.IterTime < 10*compute {
		t.Errorf("demand paging must dominate: iter %d < 10x compute %d", got.IterTime, compute)
	}
}

// The interleaved schedule hides every subgroup update under the
// remaining backward compute, so the plan matches its closed form
// (compute plus one subgroup drain) to within 2%.
func TestInterleavedOptMatchesClosedForm(t *testing.T) {
	for _, cfg := range []modelcfg.Config{modelcfg.Config1p7B(), modelcfg.Config4B()} {
		m := v100Model(cfg)
		got := Run(modelcfg.InterleavedOpt, m)
		if got.OOM {
			t.Fatalf("%d layers: %s", cfg.Layers, got.OOMDetail)
		}
		closed := interleavedOptIter(m, pressureFor(modelcfg.InterleavedOpt, m))
		ratio := float64(got.IterTime) / float64(closed)
		if ratio < 0.98 || ratio > 1.02 {
			t.Errorf("%d layers: plan %d vs closed form %d (ratio %.4f outside [0.98,1.02])",
				cfg.Layers, got.IterTime, closed, ratio)
		}
	}
}

// Interleaving is the method's entire advantage: it must decisively
// beat ZeRO-Offload's serial optimizer phase (the Deep Optimizer
// States comparison point) while staying within a few percent of
// resident Megatron-LM training at sizes where both fit.
func TestInterleavedOptOrdering(t *testing.T) {
	m := v100Model(modelcfg.Config1p7B())
	mega := Run(modelcfg.Megatron, m)
	zo := Run(modelcfg.ZeROOffload, m)
	io := Run(modelcfg.InterleavedOpt, m)
	if mega.OOM || zo.OOM || io.OOM {
		t.Fatalf("OOM: mega=%q zo=%q io=%q", mega.OOMDetail, zo.OOMDetail, io.OOMDetail)
	}
	if speedup := float64(zo.IterTime) / float64(io.IterTime); speedup < 1.5 {
		t.Errorf("interleaved must clearly beat ZeRO-Offload, got %.2fx", speedup)
	}
	rel := float64(mega.IterTime) / float64(io.IterTime)
	if rel < 0.93 || rel > 1.02 {
		t.Errorf("interleaved must track resident training, got %.3f of Megatron", rel)
	}
	if io.Overlap < 0.9 {
		t.Errorf("interleaved transfers must hide under compute, overlap=%.3f", io.Overlap)
	}
}

// The streamed ZeRO-Infinity schedule overlaps about half its transfer
// time under compute — more than L2L's serial loop, far less than
// STRONGHOLD's prefetch pipeline.
func TestZeroInfinityOverlapBand(t *testing.T) {
	r := Run(modelcfg.ZeROInfinity, v100Model(modelcfg.Config1p7B()))
	if r.OOM {
		t.Fatal(r.OOMDetail)
	}
	if r.Overlap < 0.40 || r.Overlap > 0.65 {
		t.Errorf("ZeRO-Infinity overlap %.3f outside [0.40,0.65]", r.Overlap)
	}
}

// Two identical runs of each new strategy must be event-for-event
// identical — the same determinism fingerprint the other plan-driven
// baselines guarantee.
func TestStrategyDeterminism(t *testing.T) {
	for _, tc := range []struct {
		meth modelcfg.Method
		cfg  modelcfg.Config
	}{
		{modelcfg.ZeROInfinity, modelcfg.Config1p7B()},
		{modelcfg.ZeROInfinityNVMe, modelcfg.Config39p5B()},
		{modelcfg.InterleavedOpt, modelcfg.Config1p7B()},
	} {
		m := v100Model(tc.cfg)
		a, b := Run(tc.meth, m), Run(tc.meth, m)
		if a.IterTime != b.IterTime || a.Steps != b.Steps || a.PlanOps != b.PlanOps {
			t.Errorf("%s: nondeterministic runs: %d/%d vs %d/%d", tc.meth, a.IterTime, a.Steps, b.IterTime, b.Steps)
		}
	}
}

// Fault plans degrade the new strategies through the same injector
// hooks as the other plan-driven baselines: a slow NVMe lengthens the
// paging-bound iteration, and slow PCIe/CPU windows lengthen the
// interleaved update chains.
func TestStrategyUnderFaults(t *testing.T) {
	slow := func(target fault.Target) *fault.Plan {
		p := &fault.Plan{Rules: []fault.Rule{{
			Target: target, Kind: fault.Slow, Factor: 0.25,
			At: 0, Dur: sim.FromSeconds(30), Every: sim.FromSeconds(60), Count: 20,
		}}}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, tc := range []struct {
		meth   modelcfg.Method
		cfg    modelcfg.Config
		target fault.Target
	}{
		{modelcfg.ZeROInfinityNVMe, modelcfg.Config39p5B(), fault.NVMe},
		{modelcfg.ZeROInfinity, modelcfg.Config1p7B(), fault.H2D},
		{modelcfg.InterleavedOpt, modelcfg.Config1p7B(), fault.CPU},
	} {
		m := v100Model(tc.cfg)
		clean := Run(tc.meth, m)
		hurt := RunWith(tc.meth, faultedEngine(m, slow(tc.target)), nil)
		if hurt.OOM {
			t.Fatalf("%s faulted run failed: %s", tc.meth, hurt.OOMDetail)
		}
		if hurt.IterTime <= clean.IterTime {
			t.Errorf("%s: slow %s did not lengthen the iteration (%d vs %d)",
				tc.meth, tc.target, hurt.IterTime, clean.IterTime)
		}
		again := RunWith(tc.meth, faultedEngine(m, slow(tc.target)), nil)
		if again.IterTime != hurt.IterTime {
			t.Errorf("%s faulted run not deterministic", tc.meth)
		}
	}
}

// The new strategies produce full traces: the spans cover the whole
// iteration, and the NVMe mode records staging spans on the nvme track.
func TestStrategyTraces(t *testing.T) {
	m := v100Model(modelcfg.Config39p5B())
	tr := trace.New()
	r := RunWith(modelcfg.ZeROInfinityNVMe, faultedEngine(m, nil), tr)
	if r.OOM {
		t.Fatal(r.OOMDetail)
	}
	if tr.Makespan() != r.IterTime {
		t.Fatalf("trace makespan %d vs iteration time %d", tr.Makespan(), r.IterTime)
	}
	kinds := map[trace.Kind]bool{}
	for _, s := range tr.Spans() {
		kinds[s.Kind] = true
	}
	for _, k := range []trace.Kind{trace.KindCompute, trace.KindH2D, trace.KindD2H, trace.KindNVMe, trace.KindOptimize} {
		if !kinds[k] {
			t.Errorf("trace missing %s spans", k)
		}
	}

	tr = trace.New()
	r = RunWith(modelcfg.InterleavedOpt, faultedEngine(v100Model(modelcfg.Config1p7B()), nil), tr)
	if r.OOM {
		t.Fatal(r.OOMDetail)
	}
	if tr.Makespan() != r.IterTime {
		t.Fatalf("interleaved trace makespan %d vs iteration time %d", tr.Makespan(), r.IterTime)
	}
}
