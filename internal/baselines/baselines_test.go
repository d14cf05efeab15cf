package baselines

import (
	"testing"

	"stronghold/internal/core"
	"stronghold/internal/fault"
	"stronghold/internal/hw"
	"stronghold/internal/modelcfg"
	"stronghold/internal/perf"
)

func v100Model(cfg modelcfg.Config) perf.Model {
	return perf.NewModel(cfg, hw.V100Platform())
}

// faultedEngine is the default-feature engine for m under faults (nil
// runs clean), the engine RunWith takes.
func faultedEngine(m perf.Model, faults *fault.Plan) core.Engine {
	e := *core.NewEngine(m)
	e.Faults = faults
	return e
}

func TestAllBaselinesRunOn1p7B(t *testing.T) {
	for _, m := range []modelcfg.Method{
		modelcfg.Megatron, modelcfg.L2L, modelcfg.ZeROOffload,
		modelcfg.ZeROInfinity, modelcfg.ZeROInfinityNVMe,
	} {
		r := Run(m, v100Model(modelcfg.Config1p7B()))
		if r.OOM {
			t.Fatalf("%s OOM on 1.7B: %s", m, r.OOMDetail)
		}
		if r.IterTime <= 0 {
			t.Fatalf("%s produced no time", m)
		}
	}
}

func TestMegatronOOMsBeyond2B(t *testing.T) {
	r := Run(modelcfg.Megatron, v100Model(modelcfg.Config4B()))
	if !r.OOM {
		t.Fatal("Megatron must OOM on 4B with 32GB")
	}
}

func TestOffloadersOutliveMegatron(t *testing.T) {
	cfg := modelcfg.Config4B()
	for _, m := range []modelcfg.Method{modelcfg.L2L, modelcfg.ZeROOffload, modelcfg.ZeROInfinity} {
		if r := Run(m, v100Model(cfg)); r.OOM {
			t.Fatalf("%s should train 4B: %s", m, r.OOMDetail)
		}
	}
}

// TestFigure8aOrdering pins the relative throughputs on the common
// 1.7B model: Megatron fastest among baselines; L2L ≈ 20-30% of
// Megatron; ZeRO-Offload and ZeRO-Infinity below 60%.
func TestFigure8aOrdering(t *testing.T) {
	m := v100Model(modelcfg.Config1p7B())
	mega := Run(modelcfg.Megatron, m)
	rel := func(method modelcfg.Method) float64 {
		return float64(mega.IterTime) / float64(Run(method, m).IterTime)
	}
	l2l := rel(modelcfg.L2L)
	if l2l < 0.15 || l2l > 0.35 {
		t.Fatalf("L2L at %.2f of Megatron, paper says ≈0.22", l2l)
	}
	zo := rel(modelcfg.ZeROOffload)
	if zo < 0.30 || zo > 0.60 {
		t.Fatalf("ZeRO-Offload at %.2f of Megatron, paper says <0.57", zo)
	}
	zi := rel(modelcfg.ZeROInfinity)
	if zi < 0.25 || zi > 0.60 {
		t.Fatalf("ZeRO-Infinity at %.2f of Megatron, paper says <0.57", zi)
	}
	if zi >= zo {
		t.Fatalf("ZeRO-Infinity (%.2f) should trail ZeRO-Offload (%.2f)", zi, zo)
	}
}

func TestNVMeModeCollapses(t *testing.T) {
	// Fig. 1b: ZeRO-Infinity with NVMe is orders of magnitude below
	// Megatron on the 1.7B model.
	m := v100Model(modelcfg.Config1p7B())
	mega := Run(modelcfg.Megatron, m)
	nvme := Run(modelcfg.ZeROInfinityNVMe, m)
	slowdown := float64(nvme.IterTime) / float64(mega.IterTime)
	if slowdown < 20 {
		t.Fatalf("ZeRO-Infinity NVMe only %.0fx slower than Megatron; paper reports orders of magnitude", slowdown)
	}
}

func TestPressurePenaltyShape(t *testing.T) {
	if pressurePenalty(0.5) != 1 || pressurePenalty(0.85) != 1 {
		t.Fatal("no penalty below the knee")
	}
	if p := pressurePenalty(1.0); p < 2.999 || p > 3.001 {
		t.Fatalf("full occupancy penalty %v, want 3", p)
	}
	if p := pressurePenalty(1.5); p < 2.999 || p > 3.001 {
		t.Fatal("penalty must clamp above 1.0 occupancy")
	}
	mid := pressurePenalty(0.925)
	if mid <= 1 || mid >= 3 {
		t.Fatalf("mid-range penalty %v out of (1,3)", mid)
	}
}

func TestRunInvalidInputs(t *testing.T) {
	bad := modelcfg.Config1p7B()
	bad.Hidden = 0
	if r := Run(modelcfg.Megatron, v100Model(bad)); !r.OOM {
		t.Fatal("invalid config must fail")
	}
	if r := Run(modelcfg.ZeRO2, v100Model(modelcfg.Config1p7B())); !r.OOM {
		t.Fatal("distributed-only methods must be rejected here")
	}
}

func TestThroughputMonotoneInModelSize(t *testing.T) {
	// Fig. 8b's premise: iteration time grows roughly linearly with
	// model size for a fixed hidden width.
	small := Run(modelcfg.ZeROInfinity, v100Model(modelcfg.Config1p7B()))
	large := Run(modelcfg.ZeROInfinity, v100Model(modelcfg.Config4B()))
	ratio := float64(large.IterTime) / float64(small.IterTime)
	// 4B/1.7B ≈ 2.4x the layers.
	if ratio < 1.8 || ratio > 3.2 {
		t.Fatalf("iteration-time ratio %v for 2.4x layers", ratio)
	}
}
