package core

import (
	"testing"

	"stronghold/internal/modelcfg"
	"stronghold/internal/sim"
)

// alternatingScale builds the 1x/3x alternation of a dense/MoE mix.
func alternatingScale(layers int) []float64 {
	s := make([]float64, layers)
	for i := range s {
		s[i] = 1
		if i%2 == 1 {
			s[i] = 3
		}
	}
	return s
}

func TestHeteroEngineRuns(t *testing.T) {
	cfg := modelcfg.Config1p7B()
	e := engineFor(cfg)
	e.Window = 2
	e.Feat.Streams = 1
	e.LayerScale = alternatingScale(cfg.Layers)
	r := e.Run(3, nil)
	if r.OOM {
		t.Fatal(r.OOMDetail)
	}
	// Mean scale is 2x, so iteration time lands between the uniform 1x
	// and uniform 3x runs.
	uni := engineFor(cfg)
	uni.Window = 2
	uni.Feat.Streams = 1
	lo := uni.Run(3, nil)
	if r.IterTime <= lo.IterTime || r.IterTime >= 3*lo.IterTime {
		t.Fatalf("hetero time %d outside (1x, 3x) of uniform %d", r.IterTime, lo.IterTime)
	}
}

func TestHeteroEngineScaleLengthValidated(t *testing.T) {
	e := engineFor(modelcfg.Config1p7B())
	e.LayerScale = []float64{1, 2}
	r := e.Run(1, nil)
	if !r.OOM {
		t.Fatal("mismatched LayerScale length must fail")
	}
}

func TestHeteroEngineDeterministic(t *testing.T) {
	mk := func() sim.Time {
		cfg := modelcfg.Config1p7B()
		e := engineFor(cfg)
		e.Window = 3
		e.Feat.Streams = 1
		e.LayerScale = alternatingScale(cfg.Layers)
		return e.Run(2, nil).IterTime
	}
	if mk() != mk() {
		t.Fatal("hetero engine must stay deterministic")
	}
}

// TestHeteroCachingAllocatorBlockSize: with the caching allocator a
// heterogeneous model takes the same LayerScale-sized blocks the
// planner budgets for, so the first window's layers alone hold at least
// window·BufBytes of device memory.
func TestHeteroCachingAllocatorBlockSize(t *testing.T) {
	cfg := modelcfg.Config1p7B()
	e := engineFor(cfg)
	e.Window = 2
	e.Feat = Features{ConcurrentOptimizers: true, Streams: 1}
	e.LayerScale = make([]float64, cfg.Layers)
	for i := range e.LayerScale {
		e.LayerScale[i] = 1
	}
	e.LayerScale[cfg.Layers/2] = 2
	res, run := e.runSim(2, nil)
	if res.OOM {
		t.Fatal(res.OOMDetail)
	}
	want := int64(e.Window) * e.planSpec(e.Window, 1, 0).BufBytes
	if peak := run.machine.GPUMem.Peak(); peak < want {
		t.Fatalf("caching allocator peak %d bytes, want at least %d (window %d at the planner's buffer size)",
			peak, want, e.Window)
	}
}

// TestJitterRobustness: the window absorbs transfer-time variability —
// with heavy jitter, a deeper window loses less throughput than a
// shallow one (the buffering argument behind §III-D's margins).
func TestJitterRobustness(t *testing.T) {
	run := func(window int, jitter float64) sim.Time {
		cfg := modelcfg.Config1p7B()
		e := engineFor(cfg)
		e.Window = window
		e.Feat.Streams = 1
		e.TransferJitter = jitter
		r := e.Run(3, nil)
		if r.OOM {
			t.Fatalf("OOM: %s", r.OOMDetail)
		}
		return r.IterTime
	}
	const jitter = 3.0 // transfers up to 7x their nominal time
	shallowPenalty := float64(run(1, jitter)) / float64(run(1, 0))
	deepPenalty := float64(run(6, jitter)) / float64(run(6, 0))
	if deepPenalty >= shallowPenalty {
		t.Fatalf("deep window should absorb jitter better: shallow %.3f vs deep %.3f",
			shallowPenalty, deepPenalty)
	}
}

func TestJitterDeterministic(t *testing.T) {
	run := func() sim.Time {
		e := engineFor(modelcfg.Config1p7B())
		e.Window = 2
		e.Feat.Streams = 1
		e.TransferJitter = 0.5
		return e.Run(2, nil).IterTime
	}
	if run() != run() {
		t.Fatal("seeded jitter must be reproducible")
	}
}
