package core

import (
	"testing"

	"stronghold/internal/fault"
	"stronghold/internal/hw"
	"stronghold/internal/modelcfg"
	"stronghold/internal/perf"
	"stronghold/internal/plan"
)

// constrainedPlatform is the documented capacity-constrained scenario
// for the co-optimizing solver (EXPERIMENTS.md): a 6 GB device with a
// fast PCIe 4.0-class link but commodity desktop DRAM (12.5 GB/s
// socket bandwidth). The GPU clamps the window below what Eq. 3 wants,
// and the slow host makes the CPU optimizer chain the binding
// constraint — exactly the regime where shifting a share of each
// update to the GPU pays.
func constrainedPlatform() hw.Platform {
	plat := hw.V100Platform()
	plat.GPU.MemBytes = 6 * hw.GB
	plat.CPU.MemBandwidth = 12.5e9
	plat.PCIe.BandwidthPerDir = 64e9
	return plat
}

func constrainedEngine(coopt bool) *Engine {
	e := NewEngine(perf.NewModel(modelcfg.NewConfig(20, 2560, 4), constrainedPlatform()))
	e.Feat.Streams = 1
	e.CoOpt = coopt
	return e
}

func TestCoOptBeatsFixedPlacement(t *testing.T) {
	co := constrainedEngine(true)
	d, err := co.SolvedDecision()
	if err != nil {
		t.Fatalf("SolvedDecision: %v", err)
	}
	if d.OptGPUFrac <= 0 {
		t.Fatalf("capacity-constrained scenario must engage the placement split, got g=%g", d.OptGPUFrac)
	}
	fixed := constrainedEngine(false).Run(4, nil)
	split := co.Run(4, nil)
	if fixed.OOM || split.OOM {
		t.Fatalf("OOM: fixed=%q split=%q", fixed.OOMDetail, split.OOMDetail)
	}
	if split.OptGPUFrac != d.OptGPUFrac {
		t.Fatalf("run reports g=%g, solver decided %g", split.OptGPUFrac, d.OptGPUFrac)
	}
	if fixed.OptGPUFrac != 0 {
		t.Fatalf("fixed placement must report g=0, got %g", fixed.OptGPUFrac)
	}
	speedup := float64(fixed.IterTime) / float64(split.IterTime)
	if speedup < 1.05 {
		t.Fatalf("co-optimized placement must beat fixed placement by >=5%%: fixed=%d split=%d (%.3fx)",
			fixed.IterTime, split.IterTime, speedup)
	}
	t.Logf("co-opt g=%g m=%d: fixed=%dms split=%dms speedup=%.3fx",
		d.OptGPUFrac, d.M, fixed.IterTime/1e6, split.IterTime/1e6, speedup)
}

func TestCoOptPlanValidates(t *testing.T) {
	p, err := constrainedEngine(true).BuildPlan(0)
	if err != nil {
		t.Fatalf("BuildPlan: %v", err)
	}
	if p.OptSlots != 2 {
		t.Fatalf("split plan must carry the 2-slot moment staging budget, got %d", p.OptSlots)
	}
	if err := plan.Validate(p); err != nil {
		t.Fatalf("co-optimized plan must validate: %v", err)
	}
	joins, fracs := 0, 0
	for i := range p.Ops {
		if p.Ops[i].Kind == plan.Join {
			joins++
			if p.Ops[i].Export != plan.ExtOptDone {
				t.Fatalf("op %d: split-update join must publish ExtOptDone", p.Ops[i].ID)
			}
		}
		if p.Ops[i].Frac != 0 {
			fracs++
		}
	}
	if joins == 0 || fracs == 0 {
		t.Fatalf("split plan must contain join and fractional ops, got joins=%d fracs=%d", joins, fracs)
	}
}

func TestCoOptOffByDefaultIsIdentical(t *testing.T) {
	// On the paper's platform the solver keeps the fixed placement, and
	// an engine with CoOpt set behaves identically to one without.
	for _, coopt := range []bool{false, true} {
		e := engineFor(modelcfg.Config1p7B())
		e.CoOpt = coopt
		d, err := e.SolvedDecision()
		if err != nil {
			t.Fatalf("SolvedDecision(coopt=%v): %v", coopt, err)
		}
		if d.OptGPUFrac != 0 {
			t.Fatalf("V100/1.7B must keep the fixed placement, got g=%g", d.OptGPUFrac)
		}
	}
	plain := engineFor(modelcfg.Config1p7B()).Run(3, nil)
	co := engineFor(modelcfg.Config1p7B())
	co.CoOpt = true
	withCo := co.Run(3, nil)
	if plain.IterTime != withCo.IterTime || plain.PlanOps != withCo.PlanOps {
		t.Fatalf("disengaged co-opt changed the schedule: %v vs %v", plain.IterTime, withCo.IterTime)
	}
}

func TestCoOptDisabledUnderFaults(t *testing.T) {
	e := constrainedEngine(true)
	e.Faults = &fault.Plan{Rules: []fault.Rule{
		{Target: fault.H2D, Kind: fault.Slow, At: 100e6, Dur: 500e6, Factor: 0.5},
	}}
	r := e.Run(3, nil)
	if r.OOM {
		t.Fatalf("faulted run OOM: %s", r.OOMDetail)
	}
	if r.OptGPUFrac != 0 {
		t.Fatalf("degraded mode must pin the fixed placement, got g=%g", r.OptGPUFrac)
	}
}

func TestCoOptDeterministic(t *testing.T) {
	a := constrainedEngine(true).Run(3, nil)
	b := constrainedEngine(true).Run(3, nil)
	if a.IterTime != b.IterTime || a.OptGPUFrac != b.OptGPUFrac {
		t.Fatalf("nondeterministic co-opt run: %d/%g vs %d/%g", a.IterTime, a.OptGPUFrac, b.IterTime, b.OptGPUFrac)
	}
}
