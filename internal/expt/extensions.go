package expt

import (
	"fmt"

	"stronghold/internal/baselines"
	"stronghold/internal/core"
	"stronghold/internal/hw"
	"stronghold/internal/modelcfg"
	"stronghold/internal/perf"
	"stronghold/internal/sim"
)

// Extension experiments beyond the paper's figures: quantify two design
// margins the paper asserts qualitatively — how window depth absorbs
// transfer-time variability (§III-D's "suitable working window"), and
// what the fixed-size-buffer mode buys on heterogeneous models
// (§III-D's user-enabled option).

// JitterRow is one point of the robustness study: throughput retention
// under transfer jitter, by window size.
type JitterRow struct {
	Window int
	// Retention is jittered throughput over jitter-free throughput
	// (1.0 = fully absorbed).
	Retention float64
}

// JitterStudy sweeps window sizes on the 1.7B model under heavy
// (deterministic, seeded) transfer jitter.
func JitterStudy(jitter float64) []JitterRow {
	if jitter <= 0 {
		jitter = 3.0
	}
	var rows []JitterRow
	for _, w := range []int{1, 2, 4, 8} {
		run := func(j float64) sim.Time {
			e := *core.NewEngine(perf.NewModel(modelcfg.Config1p7B(), hw.V100Platform()))
			e.Window = w
			e.Feat.Streams = 1
			e.TransferJitter = j
			return baselines.RunWith(modelcfg.Stronghold, e, nil).IterTime
		}
		base, jittered := run(0), run(jitter)
		rows = append(rows, JitterRow{Window: w, Retention: float64(base) / float64(jittered)})
	}
	return rows
}

// RenderJitterRows formats the robustness study.
func RenderJitterRows(rows []JitterRow, jitter float64) string {
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			fmt.Sprintf("%d", r.Window),
			fmt.Sprintf("%.1f%%", r.Retention*100),
		})
	}
	return fmt.Sprintf("Extension: throughput retention under %.0fx transfer jitter (1.7B)\n%s",
		jitter, renderTable([]string{"window", "retention"}, cells))
}

// HeteroRow compares fixed-count and fixed-budget windows on a
// heterogeneous (alternating dense/wide) model.
type HeteroRow struct {
	Strategy   string
	GPUBytes   int64
	HidesXfers bool
}

// HeteroWindowStudy plans windows for an alternating 1x/3x layer mix:
// the fixed-count window must size every buffer for the widest layer,
// while the fixed-budget mode packs more narrow layers into the same
// bytes — the §III-D memory-utilization argument.
func HeteroWindowStudy() ([]HeteroRow, error) {
	m := perf.NewModel(modelcfg.Config1p7B(), hw.V100Platform())
	prof := core.UniformProfile(m, 16*hw.GB, 16)
	for i := range prof.Layers {
		if i%2 == 1 {
			prof.Layers[i].SFP *= 3
			prof.Layers[i].SBP *= 3
			prof.Layers[i].TFP *= 3
			prof.Layers[i].TBP *= 3
			prof.Layers[i].TC2G *= 3
			prof.Layers[i].TG2C *= 3
		}
	}
	d, err := core.Solve(prof, modelcfg.DecisionVars{Window: true})
	if err != nil {
		return nil, err
	}
	// Fixed count: m buffers each sized for the widest layer.
	widest := prof.Layers[1].SBP
	fixedCount := HeteroRow{
		Strategy: fmt.Sprintf("fixed count (m=%d, widest-sized buffers)", d.M),
		GPUBytes: int64(d.M+1) * widest,
	}
	budget, err := core.MinBudgetToHide(prof, widest, 64*hw.GB)
	if err != nil {
		return nil, err
	}
	plan, err := core.PlanFixedBudget(prof, budget)
	if err != nil {
		return nil, err
	}
	fixedBudget := HeteroRow{
		Strategy:   fmt.Sprintf("fixed budget (%d-%d layers dynamic)", plan.MinLayers, plan.MaxLayers),
		GPUBytes:   budget,
		HidesXfers: plan.HidesTransfers(prof),
	}
	// Does the fixed-count window hide transfers? Evaluate via the
	// budget it implies.
	if cPlan, err := core.PlanFixedBudget(prof, fixedCount.GPUBytes); err == nil {
		fixedCount.HidesXfers = cPlan.HidesTransfers(prof)
	}
	return []HeteroRow{fixedCount, fixedBudget}, nil
}

// RenderHeteroRows formats the heterogeneous-window study.
func RenderHeteroRows(rows []HeteroRow) string {
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Strategy,
			fmt.Sprintf("%.2fGB", float64(r.GPUBytes)/float64(hw.GB)),
			fmt.Sprintf("%v", r.HidesXfers),
		})
	}
	return "Extension: window strategies on a heterogeneous (1x/3x) model\n" +
		renderTable([]string{"strategy", "window bytes", "hides transfers"}, cells)
}
