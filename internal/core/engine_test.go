package core

import (
	"errors"
	"sort"
	"testing"

	"stronghold/internal/fault"
	"stronghold/internal/hw"
	"stronghold/internal/modelcfg"
	"stronghold/internal/perf"
	"stronghold/internal/sim"
	"stronghold/internal/trace"
)

func engineFor(cfg modelcfg.Config) *Engine {
	return NewEngine(perf.NewModel(cfg, hw.V100Platform()))
}

func TestEngineRunsAndProducesTime(t *testing.T) {
	e := engineFor(modelcfg.Config1p7B())
	r := e.Run(2, nil)
	if r.OOM {
		t.Fatalf("1.7B must fit: %s", r.OOMDetail)
	}
	if r.IterTime <= 0 {
		t.Fatal("non-positive iteration time")
	}
	if r.GPUPeak <= 0 || r.GPUPeak > 32*hw.GB {
		t.Fatalf("GPU peak %d out of range", r.GPUPeak)
	}
}

func TestEngineDeterministic(t *testing.T) {
	a := engineFor(modelcfg.Config1p7B()).Run(3, nil)
	b := engineFor(modelcfg.Config1p7B()).Run(3, nil)
	if a.IterTime != b.IterTime {
		t.Fatalf("nondeterministic engine: %d vs %d", a.IterTime, b.IterTime)
	}
}

func TestEngineSteadyState(t *testing.T) {
	// Iteration time must stabilize: iterations 3 and 5 agree within 2%.
	e3 := engineFor(modelcfg.Config1p7B()).Run(3, nil)
	e5 := engineFor(modelcfg.Config1p7B()).Run(5, nil)
	ratio := float64(e5.IterTime) / float64(e3.IterTime)
	if ratio < 0.98 || ratio > 1.02 {
		t.Fatalf("not steady state: it3=%d it5=%d", e3.IterTime, e5.IterTime)
	}
}

func TestEngineOOMOnHostExhaustion(t *testing.T) {
	// A 60B model needs 960GB of host pinned memory — more than the
	// V100 server's 632GB usable.
	cfg := modelcfg.ConfigForSize(60, 2560, 1)
	r := engineFor(cfg).Run(1, nil)
	if !r.OOM {
		t.Fatal("60B must OOM on the V100 server (host bound)")
	}
	if r.OOMDetail == "" {
		t.Fatal("OOM must carry detail")
	}
}

func TestEngine39BFits(t *testing.T) {
	r := engineFor(modelcfg.Config39p5B()).Run(1, nil)
	if r.OOM {
		t.Fatalf("39.5B must fit (the paper's headline): %s", r.OOMDetail)
	}
}

func TestEngineTraceOverlap(t *testing.T) {
	// With the full feature set, the window must hide most transfer
	// time under compute — the Figure 4 claim.
	e := engineFor(modelcfg.Config4B())
	tr := trace.New()
	r := e.Run(3, tr)
	if r.OOM {
		t.Fatal(r.OOMDetail)
	}
	if tr.Len() == 0 {
		t.Fatal("trace is empty")
	}
	if r.Overlap < 0.85 {
		t.Fatalf("overlap %.2f, want ≥0.85 (communication hidden under compute)", r.Overlap)
	}
	// The trace must contain all activity kinds.
	for _, k := range []trace.Kind{trace.KindCompute, trace.KindH2D, trace.KindD2H, trace.KindOptimize} {
		if len(tr.ByKind(k)) == 0 {
			t.Fatalf("no %s spans recorded", k)
		}
	}
}

func TestEngineWindowSweepShape(t *testing.T) {
	// Figure 9: throughput rises with window size then plateaus; beyond
	// the knee extra window buys nothing.
	cfg := modelcfg.Config1p7B()
	var times []sim.Time
	for _, w := range []int{1, 2, 4, 8, 12} {
		e := engineFor(cfg)
		e.Window = w
		e.Feat.Streams = 1 // isolate windowing from multi-stream
		r := e.Run(3, nil)
		if r.OOM {
			t.Fatalf("window %d OOM: %s", w, r.OOMDetail)
		}
		times = append(times, r.IterTime)
	}
	if times[0] <= times[2] {
		t.Fatalf("window 1 (%d) should be slower than window 4 (%d)", times[0], times[2])
	}
	// Plateau: widening 8 → 12 changes time by <2%.
	d := float64(times[4]-times[3]) / float64(times[3])
	if d > 0.02 || d < -0.02 {
		t.Fatalf("no plateau: w8=%d w12=%d", times[3], times[4])
	}
}

func TestEngineSolvedWindowAtKnee(t *testing.T) {
	// The analytic window must land at (or past) the measured knee:
	// running with the solved window must be within 3% of a generous
	// window.
	cfg := modelcfg.Config1p7B()
	auto := engineFor(cfg)
	auto.Feat.Streams = 1
	rAuto := auto.Run(3, nil)

	wide := engineFor(cfg)
	wide.Window = 16
	wide.Feat.Streams = 1
	rWide := wide.Run(3, nil)

	if float64(rAuto.IterTime) > 1.03*float64(rWide.IterTime) {
		t.Fatalf("solved window leaves throughput behind: auto=%d wide=%d", rAuto.IterTime, rWide.IterTime)
	}
	// And it must use less memory than the generous window.
	if rAuto.GPUPeak >= rWide.GPUPeak {
		t.Fatalf("solved window should save memory: auto=%d wide=%d", rAuto.GPUPeak, rWide.GPUPeak)
	}
}

func TestEngineMultiStreamSpeedup(t *testing.T) {
	// §IV-A / Figure 11: multi-stream beats single-stream at the same
	// batch.
	cfg := modelcfg.Config1p7B()
	cfg.BatchSize = 8

	single := engineFor(cfg)
	single.Feat.Streams = 1
	rs := single.Run(3, nil)

	multi := engineFor(cfg)
	multi.Feat.Streams = 4
	rm := multi.Run(3, nil)

	if rs.OOM || rm.OOM {
		t.Fatal("both configurations must fit")
	}
	speedup := float64(rs.IterTime) / float64(rm.IterTime)
	if speedup < 1.2 {
		t.Fatalf("multi-stream speedup %.2f, want >1.2", speedup)
	}
}

func TestEnginePickStreamsAuto(t *testing.T) {
	cfg := modelcfg.Config1p7B()
	cfg.BatchSize = 8
	e := engineFor(cfg)
	if got := e.pickStreams(8); got < 2 {
		t.Fatalf("auto stream selection picked %d, want ≥2 for bs=8", got)
	}
	// Explicit override wins.
	e.Feat.Streams = 1
	if e.pickStreams(8) != 1 {
		t.Fatal("explicit stream count must win")
	}
}

// A run reports the stream count it trained with, and it is the one
// the plan of the same decision schedules: automatic and pinned
// streams, on NVMe and under a fault plan.
func TestRunStreamsMatchPlanQueues(t *testing.T) {
	drop, err := fault.ParsePlan("h2d:drop(at=100ms,dur=40ms,every=500ms)")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		setup func(*Engine)
	}{
		{"auto", func(*Engine) {}},
		{"pin-1", func(e *Engine) { e.Feat.Streams = 1 }},
		{"pin-2", func(e *Engine) { e.Feat.Streams = 2 }},
		{"pin-4", func(e *Engine) { e.Feat.Streams = 4 }},
		{"nvme", func(e *Engine) { e.Feat.UseNVMe = true }},
		{"faulted", func(e *Engine) { e.Faults = drop }},
	} {
		e := engineFor(modelcfg.Config1p7B())
		tc.setup(e)
		r := e.Run(SteadyIters, nil)
		if r.OOM {
			t.Fatalf("%s: OOM %s", tc.name, r.OOMDetail)
		}
		it, err := e.BuildPlan(e.Window)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if r.Streams < 1 || r.Streams != it.Queues {
			t.Errorf("%s: the run reports %d streams, its plan has %d queues", tc.name, r.Streams, it.Queues)
		}
	}
}

// An explicit stream count must split the batch: each of k workers
// trains batch/k samples. A hand-built engine with a negative or
// non-dividing pin runs nothing and reports why, and BuildPlan returns
// the typed error.
func TestEngineRejectsStreamsThatDoNotSplitTheBatch(t *testing.T) {
	cfg := modelcfg.NewConfig(20, 2560, 16)
	cfg.BatchSize = 4
	for _, k := range []int{3, 5, -1} {
		e := engineFor(cfg)
		e.Feat.Streams = k
		want := (&StreamsError{Streams: k, BatchSize: 4}).Error()
		if r := e.Run(SteadyIters, nil); !r.OOM || r.OOMDetail != want {
			t.Errorf("streams=%d: OOM %v detail %q, want %q", k, r.OOM, r.OOMDetail, want)
		}
		var se *StreamsError
		if _, err := e.BuildPlan(0); !errors.As(err, &se) || se.Streams != k {
			t.Errorf("streams=%d: BuildPlan error %v, want a *StreamsError", k, err)
		}
	}
}

func TestEngineAblationOrdering(t *testing.T) {
	// Figure 14: each optimization individually improves on the
	// nothing-enabled baseline.
	cfg := modelcfg.Config4B()
	run := func(f Features) sim.Time {
		e := engineFor(cfg)
		e.Feat = f
		if f.Streams == 0 {
			e.Feat.Streams = 1
		}
		r := e.Run(3, nil)
		if r.OOM {
			t.Fatalf("OOM: %s", r.OOMDetail)
		}
		return r.IterTime
	}
	base := run(Features{Streams: 1})
	withOpt := run(Features{ConcurrentOptimizers: true, Streams: 1})
	withMem := run(Features{UserLevelMemMgmt: true, Streams: 1})
	withStreams := run(Features{Streams: 2})

	if withOpt > base {
		t.Fatalf("concurrent optimizers slowed things down: %d vs %d", withOpt, base)
	}
	if withMem >= base {
		t.Fatalf("memory management must improve on baseline: %d vs %d", withMem, base)
	}
	if withStreams >= base {
		t.Fatalf("multi-stream must improve on baseline: %d vs %d", withStreams, base)
	}
}

func TestEngineNVMeSlowerButWorks(t *testing.T) {
	cfg := modelcfg.Config4B()
	ram := engineFor(cfg)
	ram.Feat.Streams = 1
	rRAM := ram.Run(3, nil)

	nvme := engineFor(cfg)
	nvme.Feat.UseNVMe = true
	nvme.Feat.Streams = 1
	rNVMe := nvme.Run(3, nil)

	if rNVMe.OOM {
		t.Fatal(rNVMe.OOMDetail)
	}
	if rNVMe.IterTime < rRAM.IterTime {
		t.Fatal("NVMe staging cannot be faster than RAM")
	}
}

func TestEngineInvalidConfigReportsOOMResult(t *testing.T) {
	cfg := modelcfg.Config1p7B()
	cfg.Hidden = 0
	r := engineFor(cfg).Run(1, nil)
	if !r.OOM {
		t.Fatal("invalid config must be reported as a failed run")
	}
}

// TestEngineFIFOTrackInvariant: spans on any FIFO hardware track (the
// copy engines, the CPU optimizer workers) must never overlap — a
// structural check on the discrete-event scheduling.
func TestEngineFIFOTrackInvariant(t *testing.T) {
	e := engineFor(modelcfg.Config4B())
	e.Feat.Streams = 1
	tr := trace.New()
	if r := e.Run(3, tr); r.OOM {
		t.Fatal(r.OOMDetail)
	}
	byTrack := map[string][]trace.Span{}
	for _, s := range tr.Spans() {
		if s.Track == "pcie-h2d" || s.Track == "pcie-d2h" {
			byTrack[s.Track] = append(byTrack[s.Track], s)
		}
	}
	for track, spans := range byTrack {
		sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
		for i := 1; i < len(spans); i++ {
			if spans[i].Start < spans[i-1].End {
				t.Fatalf("%s: span %q [%d,%d) overlaps %q [%d,%d)", track,
					spans[i].Name, spans[i].Start, spans[i].End,
					spans[i-1].Name, spans[i-1].Start, spans[i-1].End)
			}
		}
	}
}
