package core

import (
	"fmt"
	"strings"
	"testing"

	"stronghold/internal/hw"
	"stronghold/internal/modelcfg"
	"stronghold/internal/perf"
	"stronghold/internal/sim"
	"stronghold/internal/trace"
)

// ProfileWarmup is the measured side of warm-up profiling (§III-B), the
// oracle the analytic UniformProfile the solver uses is checked
// against: it runs iters warm-up iterations (default 5, the paper's
// §III-B default, when iters <= 0) at the conservative window and
// returns a Profile built from the measured span durations, closing the
// measure→model→decide loop of the production runtime.
func (e *Engine) ProfileWarmup(iters int) (Profile, error) {
	if iters <= 0 {
		iters = 5
	}
	warm := *e
	warm.Window = warmupWindow
	warm.Feat.Streams = 1
	tr := trace.New()
	res := warm.Run(iters, tr)
	if res.OOM {
		return Profile{}, fmt.Errorf("core: warm-up failed: %s", res.OOMDetail)
	}
	n := e.Model.Cfg.Layers

	type acc struct {
		sum sim.Time
		cnt int
	}
	fp := make([]acc, n)
	bp := make([]acc, n)
	c2g := make([]acc, n)
	g2c := make([]acc, n)
	for _, s := range tr.Spans() {
		if s.Layer < 0 || s.Layer >= n {
			continue
		}
		d := s.Duration()
		switch {
		case s.Kind == trace.KindCompute && strings.HasPrefix(s.Name, "fp L"):
			fp[s.Layer].sum += d
			fp[s.Layer].cnt++
		case s.Kind == trace.KindCompute && strings.HasPrefix(s.Name, "bp L"):
			bp[s.Layer].sum += d
			bp[s.Layer].cnt++
		case s.Kind == trace.KindH2D:
			c2g[s.Layer].sum += d
			c2g[s.Layer].cnt++
		case s.Kind == trace.KindD2H && strings.HasPrefix(s.Name, "bp offload"):
			g2c[s.Layer].sum += d
			g2c[s.Layer].cnt++
		}
	}
	mean := func(a acc, fallback sim.Time) sim.Time {
		if a.cnt == 0 {
			return fallback
		}
		return a.sum / sim.Time(a.cnt)
	}
	// Analytic profile supplies sizes, async constants, and fallbacks
	// for layers that never transferred (the resident ones).
	base := UniformProfile(e.Model, e.availableWindowBytes(), e.optWorkers())
	layers := make([]LayerProfile, n)
	for i := range layers {
		layers[i] = LayerProfile{
			TFP:  mean(fp[i], base.Layers[i].TFP),
			TBP:  mean(bp[i], base.Layers[i].TBP),
			TC2G: mean(c2g[i], base.Layers[i].TC2G),
			TG2C: mean(g2c[i], base.Layers[i].TG2C),
			SFP:  base.Layers[i].SFP,
			SBP:  base.Layers[i].SBP,
		}
	}
	base.Layers = layers
	return base, nil
}

func TestProfileWarmupMatchesAnalytic(t *testing.T) {
	e := engineFor(modelcfg.Config1p7B())
	measured, err := e.ProfileWarmup(5)
	if err != nil {
		t.Fatal(err)
	}
	analytic := UniformProfile(e.Model, e.availableWindowBytes(), e.optWorkers())
	if len(measured.Layers) != len(analytic.Layers) {
		t.Fatal("layer count mismatch")
	}
	// Measured kernel times include launch overhead and run at the
	// single-stream utilization, so they match the analytic model
	// within 10%.
	for i, m := range measured.Layers {
		a := analytic.Layers[i]
		within := func(got, want sim.Time, what string) {
			t.Helper()
			lo, hi := float64(want)*0.9, float64(want)*1.2
			if float64(got) < lo || float64(got) > hi {
				t.Fatalf("layer %d %s: measured %d vs analytic %d", i, what, got, want)
			}
		}
		within(m.TFP, a.TFP, "t_fp")
		within(m.TBP, a.TBP, "t_bp")
	}
}

func TestProfiledWindowAgreesWithAnalytic(t *testing.T) {
	e := engineFor(modelcfg.Config1p7B())
	analytic, err := e.SolvedDecision()
	if err != nil {
		t.Fatal(err)
	}
	// The full §III-B + §III-D pipeline: profile the warm-up, then
	// solve the window from the measurements.
	p, err := e.ProfileWarmup(5)
	if err != nil {
		t.Fatal(err)
	}
	profiled, err := Solve(p, modelcfg.DecisionVars{Window: true})
	if err != nil {
		t.Fatal(err)
	}
	// The measured profile may shift the window by ±1 (transfer spans
	// include queueing), never more.
	if diff := profiled.M - analytic.M; diff > 1 || diff < -1 {
		t.Fatalf("profiled window %d vs analytic %d", profiled.M, analytic.M)
	}
}

func TestWarmupOverheadSmall(t *testing.T) {
	// §V-D: warm-up profiling accounts for <0.5% of total training.
	e := engineFor(modelcfg.Config1p7B())
	frac, err := e.WarmupOverheadFraction(5, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if frac > 0.005 {
		t.Fatalf("warm-up overhead %.4f, paper says <0.5%%", frac)
	}
	if _, err := e.WarmupOverheadFraction(0, 10); err == nil {
		t.Fatal("bad ranges must error")
	}
	if _, err := e.WarmupOverheadFraction(10, 10); err == nil {
		t.Fatal("bad ranges must error")
	}
}

func TestProfileWarmupOOM(t *testing.T) {
	e := engineFor(modelcfg.ConfigForSize(60, 2560, 1))
	if _, err := e.ProfileWarmup(2); err == nil {
		t.Fatal("warm-up on an impossible model must fail")
	}
}

// heterogeneousProfile builds alternating 1x/4x-sized layers — the MoE
// or mixed-structure case the fixed-budget mode serves.
func heterogeneousProfile() Profile {
	p := uniformTestProfile(12, sim.Milliseconds(20), sim.Milliseconds(10), 1<<30)
	for i := range p.Layers {
		if i%2 == 1 {
			p.Layers[i].SFP *= 4
			p.Layers[i].SBP *= 4
			p.Layers[i].TC2G *= 4
			p.Layers[i].TG2C *= 4
			p.Layers[i].TFP *= 4
			p.Layers[i].TBP *= 4
		}
	}
	return p
}

func TestPlanFixedBudgetDynamicPopulation(t *testing.T) {
	p := heterogeneousProfile()
	// Budget of 1100: small layers are 200 (SBP), big ones 800; the
	// window population must vary with position.
	plan, err := PlanFixedBudget(p, 1100)
	if err != nil {
		t.Fatal(err)
	}
	if plan.MinLayers == plan.MaxLayers {
		t.Fatalf("heterogeneous layers should give a dynamic window, got constant %d", plan.MinLayers)
	}
	if plan.MinLayers < 1 {
		t.Fatal("population must stay positive")
	}
	// Every position's window must fit the budget.
	for i, k := range plan.LayersAt {
		var used int64
		for l := i; l < i+k && l < len(p.Layers); l++ {
			used += p.Layers[l].SBP
		}
		if used > plan.Budget {
			t.Fatalf("position %d holds %d bytes over budget %d", i, used, plan.Budget)
		}
	}
}

func TestPlanFixedBudgetTooSmall(t *testing.T) {
	p := heterogeneousProfile()
	if _, err := PlanFixedBudget(p, 100); err == nil {
		t.Fatal("budget below one layer must fail")
	}
	if _, err := PlanFixedBudget(Profile{}, 100); err == nil {
		t.Fatal("empty profile must fail")
	}
}

func TestHidesTransfersAndMinBudget(t *testing.T) {
	// Transfer-heavy uniform profile: hiding needs a multi-layer
	// window, so the minimal budget exceeds a single layer's bytes.
	p := uniformTestProfile(16, sim.Milliseconds(5), sim.Milliseconds(30), 1<<30)
	small, err := PlanFixedBudget(p, 350) // one layer + prefetch
	if err != nil {
		t.Fatal(err)
	}
	if small.HidesTransfers(p) {
		t.Fatal("a one-layer window cannot hide 6x transfers")
	}
	budget, err := MinBudgetToHide(p, 300, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanFixedBudget(p, budget)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.HidesTransfers(p) {
		t.Fatal("minimal budget must hide transfers")
	}
	// Minimality: a slightly smaller budget must not suffice.
	if smaller, err := PlanFixedBudget(p, budget-10); err == nil && smaller.HidesTransfers(p) {
		t.Fatal("budget not minimal")
	}
}

func TestMinBudgetToHideErrors(t *testing.T) {
	p := uniformTestProfile(16, 1, sim.Milliseconds(1000), 1<<30)
	if _, err := MinBudgetToHide(p, 0, 100); err == nil {
		t.Fatal("bad range must error")
	}
	// A 900-byte ceiling caps the window at ~4 of 16 layers, whose
	// nanosecond compute cannot hide second-scale transfers.
	if _, err := MinBudgetToHide(p, 100, 900); err == nil {
		t.Fatal("impossible hiding must error")
	}
}

func TestProfilerOnA10Platform(t *testing.T) {
	cfg := modelcfg.Config1p7B()
	e := NewEngine(perf.NewModel(cfg, hw.A10ClusterPlatform()))
	if _, err := e.ProfileWarmup(3); err != nil {
		t.Fatal(err)
	}
}

// warmupWindow is the conservative initial window used while profiling;
// the paper notes the initial window only needs to avoid OOM since
// profiling covers just the first iterations.
const warmupWindow = 2

// WarmupOverheadFraction estimates the §V-D claim that warm-up
// profiling costs under 0.5% of training: the warm-up iterations run at
// the conservative window instead of the solved one, and their time
// still contributes training progress, so the overhead is only the
// per-iteration difference amortized over the run length.
func (e *Engine) WarmupOverheadFraction(warmupIters, totalIters int) (float64, error) {
	if warmupIters <= 0 || totalIters <= warmupIters {
		return 0, fmt.Errorf("core: need 0 < warmup < total")
	}
	warm := *e
	warm.Window = warmupWindow
	warm.Feat.Streams = 1
	wRes := warm.Run(SteadyIters, nil)

	solved := *e
	solved.Window = 0
	sRes := solved.Run(SteadyIters, nil)
	if wRes.OOM || sRes.OOM {
		return 0, fmt.Errorf("core: warm-up overhead estimation failed")
	}
	extra := float64(wRes.IterTime-sRes.IterTime) * float64(warmupIters)
	total := float64(sRes.IterTime) * float64(totalIters)
	if extra < 0 {
		extra = 0
	}
	return extra / total, nil
}
