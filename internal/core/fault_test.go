package core

import (
	"bytes"
	"testing"

	"stronghold/internal/fault"
	"stronghold/internal/hw"
	"stronghold/internal/modelcfg"
	"stronghold/internal/perf"
	"stronghold/internal/trace"
)

// showcasePlan is the robustness study's headline schedule: both PCIe
// directions collapse to 15% bandwidth permanently, with periodic h2d
// blackouts on top. A frozen window loses about half its throughput;
// the adaptive re-solve grows m and recovers nearly all of it.
const showcasePlan = "h2d:slow(at=0s,dur=1s,every=1s,factor=0.15);d2h:slow(at=0s,dur=1s,every=1s,factor=0.15);h2d:drop(at=100ms,dur=40ms,every=500ms)"

func engine1p7B() *Engine {
	return NewEngine(perf.NewModel(modelcfg.Config1p7B(), hw.V100Platform()))
}

// TestNoFaultZeroOverhead is the zero-overhead guarantee: an engine
// with no fault plan — nil or empty — must produce byte-identical
// traces and identical results to one that has never heard of faults.
// The two no-plan spellings must also agree with each other, since the
// engine promises to treat them identically.
func TestNoFaultZeroOverhead(t *testing.T) {
	run := func(mutate func(*Engine)) (perf.IterationResult, []byte) {
		e := engine1p7B()
		if mutate != nil {
			mutate(e)
		}
		tr := trace.New()
		res := e.Run(3, tr)
		if res.OOM {
			t.Fatalf("1.7B must fit: %s", res.OOMDetail)
		}
		raw, err := tr.ChromeJSON()
		if err != nil {
			t.Fatalf("serializing trace: %v", err)
		}
		return res, raw
	}
	base, baseTrace := run(nil)
	for _, tc := range []struct {
		name   string
		mutate func(*Engine)
	}{
		{"nil-plan", func(e *Engine) { e.Faults = nil }},
		{"empty-plan", func(e *Engine) { e.Faults = &fault.Plan{} }},
		{"empty-plan-with-seed", func(e *Engine) { e.Faults = &fault.Plan{Seed: 42} }},
		{"disable-resolve-no-plan", func(e *Engine) { e.DisableResolve = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, raw := run(tc.mutate)
			if res != base {
				t.Fatalf("results diverge from the clean run:\n  %+v\n  %+v", base, res)
			}
			if !bytes.Equal(raw, baseTrace) {
				t.Fatalf("traces diverge from the clean run (%d vs %d bytes)", len(baseTrace), len(raw))
			}
		})
	}
}

// TestAdaptiveResolveRecovers is the acceptance demonstration: under
// the showcase degradation the frozen window loses far more throughput
// than the adaptive one, the re-solve visibly changes m mid-run, and
// adaptive throughput recovers at least 90% of the clean run's.
func TestAdaptiveResolveRecovers(t *testing.T) {
	clean := engine1p7B().Run(6, nil)
	if clean.OOM {
		t.Fatalf("clean run failed: %s", clean.OOMDetail)
	}

	plan, err := fault.ParsePlan(showcasePlan)
	if err != nil {
		t.Fatal(err)
	}
	frozenEng := engine1p7B()
	frozenEng.Faults = plan
	frozenEng.DisableResolve = true
	frozen := frozenEng.Run(6, nil)

	adaptEng := engine1p7B()
	adaptEng.Faults = plan
	adaptive := adaptEng.Run(6, nil)

	batch := adaptEng.Model.Cfg.BatchSize
	cleanTput := clean.Throughput(batch)
	frozenTput := frozen.Throughput(batch)
	adaptTput := adaptive.Throughput(batch)
	t.Logf("throughput samples/s: clean=%.3f frozen=%.3f adaptive=%.3f (retention %.1f%%)",
		cleanTput, frozenTput, adaptTput, 100*adaptTput/cleanTput)
	t.Logf("adaptive: resolves=%d window %d→%d retries=%d misses=%d",
		adaptive.WindowResolves, clean.FinalWindow, adaptive.FinalWindow, adaptive.Retries, adaptive.DeadlineMisses)

	if adaptive.WindowResolves < 1 {
		t.Error("adaptive run never re-solved the window")
	}
	if adaptive.FinalWindow <= clean.FinalWindow {
		t.Errorf("adaptive window did not grow: %d vs clean %d", adaptive.FinalWindow, clean.FinalWindow)
	}
	if frozen.FinalWindow != clean.FinalWindow {
		t.Errorf("frozen run changed its window: %d vs %d", frozen.FinalWindow, clean.FinalWindow)
	}
	if adaptTput < 0.9*cleanTput {
		t.Errorf("adaptive throughput %.3f recovered only %.1f%% of clean %.3f (want ≥ 90%%)",
			adaptTput, 100*adaptTput/cleanTput, cleanTput)
	}
	if adaptTput <= frozenTput {
		t.Errorf("adaptive %.3f not better than frozen %.3f", adaptTput, frozenTput)
	}
	if frozen.Retries == 0 {
		t.Error("blackout plan caused no retries on the frozen run")
	}
}

// TestAdaptiveShrinksBack checks the other direction of the loop: when
// the degradation subsides, the window re-solves back down to its clean
// solution instead of hoarding device memory forever.
func TestAdaptiveShrinksBack(t *testing.T) {
	// Severe slowdown for the first ~10s (two iterations), then clean.
	plan, err := fault.ParsePlan("h2d:slow(at=0s,dur=1s,every=1s,count=10,factor=0.1);d2h:slow(at=0s,dur=1s,every=1s,count=10,factor=0.1)")
	if err != nil {
		t.Fatal(err)
	}
	clean := engine1p7B().Run(2, nil)
	e := engine1p7B()
	e.Faults = plan
	res := e.Run(8, nil)
	if res.OOM {
		t.Fatalf("faulted run failed: %s", res.OOMDetail)
	}
	if res.WindowResolves < 2 {
		t.Errorf("expected a grow and a shrink re-solve, got %d", res.WindowResolves)
	}
	if res.FinalWindow != clean.FinalWindow {
		t.Errorf("window did not return to the clean solution: %d vs %d", res.FinalWindow, clean.FinalWindow)
	}
	if res.IterTime != clean.IterTime {
		t.Errorf("final iteration under subsided faults took %v, clean takes %v", res.IterTime, clean.IterTime)
	}
}

// TestArenaBalancedAfterRun: every run — clean, degraded, retried,
// resized, caching-allocator, NVMe — must end with all memory arenas
// balanced: zero live bytes and alloc ops equal to free ops.
func TestArenaBalancedAfterRun(t *testing.T) {
	cases := []struct {
		name string
		feat Features
		plan string
	}{
		{"clean-default", DefaultFeatures(), ""},
		{"clean-caching-alloc", Features{ConcurrentOptimizers: true, Streams: 1}, ""},
		{"showcase", DefaultFeatures(), showcasePlan},
		{"retry-heavy", DefaultFeatures(), "h2d:drop(at=50ms,dur=100ms,every=250ms);d2h:drop(at=100ms,dur=100ms,every=250ms)"},
		{"caching-alloc-faulted", Features{ConcurrentOptimizers: true, Streams: 1}, showcasePlan},
		{"nvme-faulted", Features{ConcurrentOptimizers: true, UserLevelMemMgmt: true, Streams: 1, UseNVMe: true}, "nvme:slow(at=0s,dur=1s,every=1s,factor=0.3);nvme:drop(at=200ms,dur=50ms,every=400ms)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := engine1p7B()
			e.Feat = tc.feat
			if tc.plan != "" {
				p, err := fault.ParsePlan(tc.plan)
				if err != nil {
					t.Fatal(err)
				}
				e.Faults = p
			}
			res, run := e.runSim(4, nil)
			if res.OOM {
				t.Fatalf("run failed: %s", res.OOMDetail)
			}
			if run == nil {
				t.Fatal("runSim returned no run state")
			}
			a := run.machine.GPUMem
			if a.Used() != 0 {
				t.Errorf("arena %s ends with %d live bytes", a.Name(), a.Used())
			}
			if a.AllocOps() != a.FreeOps() {
				t.Errorf("arena %s unbalanced: %d allocs vs %d frees", a.Name(), a.AllocOps(), a.FreeOps())
			}
			if tc.plan == "" && (res.Retries != 0 || res.DeadlineMisses != 0 || res.WindowResolves != 0) {
				t.Errorf("clean run reported fault counters: %+v", res)
			}
		})
	}
}

// TestFaultTraceEvents checks the Chrome trace of a degraded run
// records the injected windows and the recovery actions on the faults
// track, so degraded runs are visually debuggable.
func TestFaultTraceEvents(t *testing.T) {
	plan, err := fault.ParsePlan(showcasePlan)
	if err != nil {
		t.Fatal(err)
	}
	e := engine1p7B()
	e.Faults = plan
	tr := trace.New()
	res := e.Run(3, tr)
	if res.OOM {
		t.Fatalf("run failed: %s", res.OOMDetail)
	}
	spans := tr.ByKind(trace.KindFault)
	if len(spans) == 0 {
		t.Fatal("degraded run emitted no fault spans")
	}
	var haveWindow, haveRetry, haveResolve bool
	for _, s := range spans {
		if s.Track != "faults" {
			t.Errorf("fault span on unexpected track %q", s.Track)
		}
		switch {
		case s.Name == "h2d slow x0.15" || s.Name == "h2d drop" || s.Name == "d2h slow x0.15":
			haveWindow = true
		case len(s.Name) > 9 && s.Name[:9] == "h2d retry":
			haveRetry = true
		case len(s.Name) > 8 && s.Name[:8] == "re-solve":
			haveResolve = true
		}
	}
	if !haveWindow {
		t.Error("no injected fault windows in the trace")
	}
	if !haveRetry && res.Retries > 0 {
		t.Error("retries happened but left no trace spans")
	}
	if !haveResolve && res.WindowResolves > 0 {
		t.Error("re-solves happened but left no trace spans")
	}
}

// TestFaultedRunRejectsBadPlan: an invalid plan surfaces as a typed
// error result, not a panic.
func TestFaultedRunRejectsBadPlan(t *testing.T) {
	e := engine1p7B()
	e.Faults = &fault.Plan{Rules: []fault.Rule{{Target: "gpu", Kind: fault.Stall, Dur: 1}}}
	res := e.Run(2, nil)
	if !res.OOM {
		t.Fatal("invalid plan accepted")
	}
}

// TestDegradedModeFeatureMatrix runs the showcase plan across the
// ablation feature sets to make sure degraded mode composes with every
// scheduling variant, and that each one replays deterministically.
func TestDegradedModeFeatureMatrix(t *testing.T) {
	feats := []struct {
		name string
		feat Features
	}{
		{"default", DefaultFeatures()},
		{"multistream", Features{ConcurrentOptimizers: true, UserLevelMemMgmt: true, Streams: 2}},
		{"baseline-no-opt", Features{Streams: 1}},
		{"nvme", Features{ConcurrentOptimizers: true, UserLevelMemMgmt: true, Streams: 1, UseNVMe: true}},
	}
	for _, tc := range feats {
		t.Run(tc.name, func(t *testing.T) {
			res1, tr1 := runTracedFaulted(t, tc.feat, showcasePlan, false)
			res2, tr2 := runTracedFaulted(t, tc.feat, showcasePlan, false)
			if res1 != res2 {
				t.Fatalf("results diverge:\n  %+v\n  %+v", res1, res2)
			}
			if !bytes.Equal(tr1, tr2) {
				t.Fatal("traces diverge")
			}
			if res1.IterTime <= 0 {
				t.Fatalf("degenerate iteration time %v", res1.IterTime)
			}
		})
	}
}

// TestDegradedGPUPeakCoversPool checks that a degraded run reports the
// device peak of the buffer pool it reserves for the re-solve to grow
// into, not of its initial window: at least the footprint of a clean
// run at the window the re-solve settles on. Without faults, and with
// the re-solve disabled, the pool holds only the solved window and the
// peak is the clean one.
func TestDegradedGPUPeakCoversPool(t *testing.T) {
	plan, err := fault.ParsePlan("seed=7;h2d:slow(at=0s,dur=10s,factor=0.2);d2h:drop(at=0s,dur=50ms,every=200ms)")
	if err != nil {
		t.Fatal(err)
	}
	engine := func() *Engine {
		return NewEngine(perf.NewModel(modelcfg.NewConfig(20, 2560, 4), hw.V100Platform()))
	}
	clean := engine().Run(3, nil)
	e := engine()
	e.Faults = plan
	degraded := e.Run(3, nil)
	if degraded.OOM || clean.OOM {
		t.Fatalf("1.7B must fit: %s%s", clean.OOMDetail, degraded.OOMDetail)
	}
	if degraded.FinalWindow <= clean.FinalWindow {
		t.Fatalf("the re-solve did not grow the window (%d -> %d)", clean.FinalWindow, degraded.FinalWindow)
	}
	atFinal := engine()
	atFinal.Window = degraded.FinalWindow
	if want := atFinal.Run(3, nil).GPUPeak; degraded.GPUPeak < want {
		t.Errorf("degraded peak %d below the clean peak %d at its final window %d", degraded.GPUPeak, want, degraded.FinalWindow)
	}
	frozen := engine()
	frozen.Faults, frozen.DisableResolve = plan, true
	if got := frozen.Run(3, nil).GPUPeak; got != clean.GPUPeak {
		t.Errorf("with the re-solve off the peak is %d, want the clean %d", got, clean.GPUPeak)
	}
}

// TestEveryFaultTargetSlowsSomething applies a whole-run half-rate
// slowdown to each injectable target in turn — on STRONGHOLD-NVMe for
// the NVMe queue, on STRONGHOLD for the rest — and requires the
// iteration to take longer than the clean run. A target that no op runs
// on would accept rules and change no number.
func TestEveryFaultTargetSlowsSomething(t *testing.T) {
	for _, tg := range fault.Targets {
		t.Run(string(tg), func(t *testing.T) {
			feat := DefaultFeatures()
			if tg == fault.NVMe {
				feat = Features{ConcurrentOptimizers: true, UserLevelMemMgmt: true, Streams: 1, UseNVMe: true}
			}
			run := func(plan string) perf.IterationResult {
				e := engine1p7B()
				e.Feat = feat
				if plan != "" {
					p, err := fault.ParsePlan(plan)
					if err != nil {
						t.Fatal(err)
					}
					e.Faults = p
				}
				res := e.Run(3, nil)
				if res.OOM {
					t.Fatalf("1.7B must fit: %s", res.OOMDetail)
				}
				return res
			}
			clean := run("")
			slowed := run(string(tg) + ":slow(at=0s,dur=1s,every=1s,factor=0.5)")
			if slowed.IterTime <= clean.IterTime {
				t.Errorf("%s at half rate: iteration %v, clean %v; the target slows nothing",
					tg, slowed.IterTime, clean.IterTime)
			}
		})
	}
}
