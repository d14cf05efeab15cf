package core

import (
	"testing"

	"stronghold/internal/plan"
	"stronghold/internal/sim"
	"stronghold/internal/trace"
)

// TestRunPlanOrdersEachQueue checks that a timed run keeps each queue's
// op order, the order plan.Validate proves residency against: bp L0 has
// no dependency of its own, but it follows fp L0 on queue 0, so it
// cannot start before fp L0, which waits for the layer's weights.
func TestRunPlanOrdersEachQueue(t *testing.T) {
	it := &plan.Iteration{Layers: 1, Queues: 1}
	acq := it.Add(plan.Op{Kind: plan.BufAcquire, Label: plan.LabelAcquire, Layer: 0, Queue: -1})
	pf := it.Add(plan.Op{Kind: plan.Prefetch, Label: plan.LabelPrefetch, Layer: 0, Queue: -1, DurNS: 1000}, acq)
	it.Add(plan.Op{Kind: plan.ComputeFP, Label: plan.LabelFP, Layer: 0, Queue: 0, DurNS: 10}, pf)
	bp := it.Add(plan.Op{Kind: plan.ComputeBP, Label: plan.LabelBP, Layer: 0, Queue: 0, DurNS: 10})
	it.Add(plan.Op{Kind: plan.BufRelease, Label: plan.LabelRelease, Layer: 0, Queue: -1}, bp)
	if err := plan.Validate(it); err != nil {
		t.Fatal(err)
	}
	tr := trace.New()
	res := RunPlan(engine1p7B().Model, it, tr, nil)
	if res.OOM {
		t.Fatal(res.OOMDetail)
	}
	got := map[string][2]sim.Time{}
	for _, s := range tr.Spans() {
		got[s.Name] = [2]sim.Time{s.Start, s.End}
	}
	for name, want := range map[string][2]sim.Time{
		"prefetch L0": {0, 1000},
		"fp L0":       {1000, 1010},
		"bp L0":       {1010, 1020},
	} {
		if got[name] != want {
			t.Errorf("%s ran %v, want %v", name, got[name], want)
		}
	}
	if res.IterTime != 1020 {
		t.Errorf("makespan %d, want 1020", res.IterTime)
	}
}
