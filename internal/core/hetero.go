package core

import (
	"fmt"

	"stronghold/internal/sim"
)

// Fixed-size buffer mode (§III-D): "STRONGHOLD also supports having a
// fixed-size GPU buffer where the number of DNN layers stored can
// dynamically change, which can be turned on by users to improve GPU
// memory utilization for DNN models with a heterogeneous layer
// structure." This file implements the planning side of that mode: for
// a fixed byte budget, the number of layers inside the window varies
// along the model.

// FixedBudgetPlan describes the dynamic window along the FP direction
// under a fixed byte budget.
type FixedBudgetPlan struct {
	Budget int64
	// LayersAt[i] is the window population when the head of the window
	// is layer i: the maximal k such that layers i..i+k-1 (plus one
	// incoming prefetch buffer) fit the budget.
	LayersAt []int
	// MinLayers and MaxLayers summarize the dynamic range.
	MinLayers, MaxLayers int
}

// PlanFixedBudget computes the dynamic-window plan for a profile and
// byte budget. It fails if any single layer (plus its prefetch buffer)
// exceeds the budget.
func PlanFixedBudget(p Profile, budget int64) (FixedBudgetPlan, error) {
	n := len(p.Layers)
	if n == 0 {
		return FixedBudgetPlan{}, fmt.Errorf("core: empty profile")
	}
	plan := FixedBudgetPlan{Budget: budget, LayersAt: make([]int, n), MinLayers: n + 1}
	for i := 0; i < n; i++ {
		var used int64
		k := 0
		for i+k < n {
			next := p.Layers[i+k].SBP
			// Reserve the incoming prefetch buffer (constraint 1c).
			incoming := int64(0)
			if i+k+1 < n {
				incoming = p.Layers[i+k+1].SFP
			}
			if used+next+incoming > budget {
				break
			}
			used += next
			k++
		}
		if k == 0 {
			return FixedBudgetPlan{}, fmt.Errorf(
				"core: layer %d (%d bytes + prefetch) exceeds the %d-byte budget",
				i, p.Layers[i].SBP, budget)
		}
		plan.LayersAt[i] = k
		if k < plan.MinLayers {
			plan.MinLayers = k
		}
		if k > plan.MaxLayers {
			plan.MaxLayers = k
		}
	}
	return plan, nil
}

// HidesTransfers reports whether the dynamic window hides prefetch at
// every position: the compute of the layers currently in the window
// must cover the next layer's fetch (the P1 criterion evaluated
// per-position with the dynamic population).
func (plan FixedBudgetPlan) HidesTransfers(p Profile) bool {
	n := len(p.Layers)
	for i := 0; i < n; i++ {
		k := plan.LayersAt[i]
		j := i + k
		if j >= n {
			continue
		}
		var cover sim.Time
		for l := i; l < j; l++ {
			cover += p.Layers[l].TFP
		}
		if cover < p.Layers[j].TC2G {
			return false
		}
	}
	return true
}

// MinBudgetToHide searches for the smallest fixed budget whose dynamic
// window hides transfers everywhere — the fixed-buffer analogue of
// the window solver's minimization objective.
func MinBudgetToHide(p Profile, lo, hi int64) (int64, error) {
	if lo <= 0 || hi < lo {
		return 0, fmt.Errorf("core: bad budget range [%d, %d]", lo, hi)
	}
	check := func(budget int64) bool {
		plan, err := PlanFixedBudget(p, budget)
		if err != nil {
			return false
		}
		return plan.HidesTransfers(p)
	}
	if !check(hi) {
		return 0, fmt.Errorf("core: even %d bytes cannot hide transfers", hi)
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if check(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return hi, nil
}
