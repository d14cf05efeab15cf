package baselines

import (
	"slices"
	"strings"
	"testing"

	"stronghold/internal/modelcfg"
	"stronghold/internal/plan"
)

// findOp locates one op of the given kind and name in a plan.
func findOp(t *testing.T, it *plan.Iteration, kind plan.Kind, name string) *plan.Op {
	t.Helper()
	for i := range it.Ops {
		if it.Ops[i].Kind == kind && it.Ops[i].Name() == name {
			return &it.Ops[i]
		}
	}
	t.Fatalf("plan has no %s op named %q", kind, name)
	return nil
}

// dropDep removes target from op's dependency list.
func dropDep(t *testing.T, it *plan.Iteration, op *plan.Op, target plan.ID) {
	t.Helper()
	deps := it.Deps(op)
	if i := slices.Index(deps, target); i >= 0 {
		it.SetDeps(op.ID, slices.Delete(slices.Clone(deps), i, i+1)...)
		return
	}
	t.Fatalf("op %q has no dependency on %d", op.Name(), target)
}

// TestValidatorRejectsCorruptedNVMePlans corrupts the ZeRO-Infinity
// NVMe schedule's residency discipline one invariant at a time — each
// mutation must be rejected with a diagnostic naming that invariant.
// This is the proof that the NVMe-tier residency rules are enforced,
// not merely satisfied by the planner's current emission.
func TestValidatorRejectsCorruptedNVMePlans(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(t *testing.T, it *plan.Iteration)
		wantMsg string
	}{
		{
			// The weight fetch must happen-after the page-in that
			// restaged the layer; dropping the edge lets the fetch read
			// the device ring before the NVMe read has landed.
			name: "fetch loses its restage edge",
			mutate: func(t *testing.T, it *plan.Iteration) {
				fetch := findOp(t, it, plan.Prefetch, "fetch L2")
				restage := findOp(t, it, plan.NVMeStage, "page-in L2")
				dropDep(t, it, fetch, restage.ID)
			},
			wantMsg: "does not happen-after the restage",
		},
		{
			// Shrinking the staging ring below the plan's concurrency
			// breaks the greedy funding proof: the second page-in has no
			// spare slot and no spill provably completed.
			name: "staging ring over budget",
			mutate: func(t *testing.T, it *plan.Iteration) {
				it.RingSlots = 1
			},
			wantMsg: "may exceed the 1-slot staging ring",
		},
		{
			// A spill must close the epoch its layer's restage opened;
			// retargeting it at an already-evicted layer is a spill of
			// state the ring no longer holds.
			name: "spill of non-staged layer",
			mutate: func(t *testing.T, it *plan.Iteration) {
				spill := findOp(t, it, plan.NVMeStage, "page-out L2")
				spill.Layer = 0 // layer 0's epoch closed at page-out L0
			},
			wantMsg: "not in the staging ring",
		},
		{
			// Flipping a restage into a spill removes the epoch opener:
			// the layer is never staged, so both its fetch and the
			// spurious spill violate ring residency.
			name: "restage flipped to spill",
			mutate: func(t *testing.T, it *plan.Iteration) {
				restage := findOp(t, it, plan.NVMeStage, "page-in L3")
				restage.Write = true
			},
			wantMsg: "not in the staging ring",
		},
		{
			// The device buffer pool is part of the same residency
			// proof: one slot cannot host the two-layer pipeline.
			name: "buffer pool over budget",
			mutate: func(t *testing.T, it *plan.Iteration) {
				it.BudgetSlots = 1
			},
			wantMsg: "may exceed the 1-slot window budget",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			it, err := PlanFor(modelcfg.ZeROInfinityNVMe, v100Model(goldenConfig()))
			if err != nil {
				t.Fatal(err)
			}
			tc.mutate(t, it)
			err = plan.Validate(it)
			if err == nil {
				t.Fatalf("validator accepted the corrupted plan")
			}
			if !strings.Contains(err.Error(), tc.wantMsg) {
				t.Errorf("rejection does not name the invariant:\nwant substring %q\ngot %v", tc.wantMsg, err)
			}
		})
	}
}

// TestValidatorRejectsCorruptedInterleavedPlans corrupts the
// interleaved optimizer placement: fractional coverage, fraction
// ranges, whole/fractional mixing, and the moment-chunk staging
// budget.
func TestValidatorRejectsCorruptedInterleavedPlans(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(t *testing.T, it *plan.Iteration)
		wantMsg string
	}{
		{
			// Shrinking one CPU share leaves part of the layer's update
			// unapplied — the fractions no longer cover the layer.
			name: "fractions sum short of 1",
			mutate: func(t *testing.T, it *plan.Iteration) {
				cpu := findOp(t, it, plan.OptStep, "adam L2 cpu")
				cpu.Frac -= 0.1
			},
			wantMsg: "fractional opt-steps sum to 0.9",
		},
		{
			// A share above 1 would apply more than the full update.
			name: "fraction out of range",
			mutate: func(t *testing.T, it *plan.Iteration) {
				gpu := findOp(t, it, plan.OptStep, "adam L2 gpu")
				gpu.Frac = 1.5
			},
			wantMsg: "fraction 1.5 outside (0,1]",
		},
		{
			// Clearing a fraction turns the op into a whole-layer step
			// coexisting with its fractional twin — a double update.
			name: "whole-layer step mixed with fractional",
			mutate: func(t *testing.T, it *plan.Iteration) {
				cpu := findOp(t, it, plan.OptStep, "adam L2 cpu")
				cpu.Frac = 0
			},
			wantMsg: "also has fractional opt-steps",
		},
		{
			// One staging slot cannot hold the double-buffered moment
			// chunks: the second fetch has no writeback to recycle.
			name: "moment staging over budget",
			mutate: func(t *testing.T, it *plan.Iteration) {
				it.OptSlots = 1
			},
			wantMsg: "may exceed the 1-slot moment staging budget",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			it, err := PlanFor(modelcfg.InterleavedOpt, v100Model(goldenConfig()))
			if err != nil {
				t.Fatal(err)
			}
			tc.mutate(t, it)
			err = plan.Validate(it)
			if err == nil {
				t.Fatalf("validator accepted the corrupted plan")
			}
			if !strings.Contains(err.Error(), tc.wantMsg) {
				t.Errorf("rejection does not name the invariant:\nwant substring %q\ngot %v", tc.wantMsg, err)
			}
		})
	}
}
