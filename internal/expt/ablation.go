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

// AblationRow is one bar of Figure 14: the speedup from enabling one
// optimization on the unoptimized offloading baseline (4B model, NVMe
// enabled).
type AblationRow struct {
	Optimization string
	Speedup      float64
	PaperSpeedup float64
}

// Figure14 runs the ablation. Paper: concurrent parameter update ≈1.5×,
// memory management ≈2.2×, multi-stream ≈2×.
func Figure14() []AblationRow {
	cfg := modelcfg.Config4B()
	run := func(f core.Features) sim.Time {
		if f.Streams == 0 {
			f.Streams = 1
		}
		e := core.Engine{Model: perf.NewModel(cfg, hw.V100Platform()), Feat: f}
		r := baselines.RunWith(modelcfg.StrongholdNVMe, e, nil)
		if r.OOM {
			return 0
		}
		return r.IterTime
	}
	base := run(core.Features{})
	full := core.DefaultFeatures()
	full.Streams = 2
	fullMinusStreams := full
	fullMinusStreams.Streams = 1
	rows := []AblationRow{
		{
			Optimization: "concurrent parameter update (SIII-E1/E2)",
			Speedup:      ratio(base, run(core.Features{ConcurrentOptimizers: true})),
			PaperSpeedup: 1.5,
		},
		{
			Optimization: "runtime memory management (SIII-E3)",
			Speedup:      ratio(base, run(core.Features{UserLevelMemMgmt: true})),
			PaperSpeedup: 2.2,
		},
		{
			// Multi-streaming acts on the compute stage, so its gain is
			// only visible once transfers and updates overlap; this bar
			// therefore compares the full system against full-minus-
			// streams (on the unoptimized baseline the pipeline is
			// transfer/optimizer-bound and extra streams change
			// nothing — see EXPERIMENTS.md).
			Optimization: "multi-streamed execution (SIV-A)",
			Speedup:      ratio(run(fullMinusStreams), run(full)),
			PaperSpeedup: 2.0,
		},
	}
	return rows
}

func ratio(base, with sim.Time) float64 {
	if with <= 0 {
		return 0
	}
	return float64(base) / float64(with)
}

// RenderAblationRows formats Figure 14.
func RenderAblationRows(rows []AblationRow) string {
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Optimization,
			fmt.Sprintf("%.2fx", r.Speedup),
			fmt.Sprintf("%.1fx", r.PaperSpeedup),
		})
	}
	return "Figure 14: per-optimization speedup over unoptimized offloading (4B, NVMe)\n" +
		renderTable([]string{"optimization", "speedup", "paper"}, cells)
}

// TableIRow mirrors one expanded Table I configuration.
type TableIRow struct {
	SizeB   float64
	Layers  int
	Hidden  int
	Heads   int
	MP      int
	ParamsB float64 // computed from the formula
}

// TableIRows regenerates Table I.
func TableIRows() []TableIRow {
	var rows []TableIRow
	for _, e := range modelcfg.TableI() {
		rows = append(rows, TableIRow{
			SizeB: e.SizeB, Layers: e.Config.Layers, Hidden: e.Config.Hidden,
			Heads: e.Config.Heads, MP: e.Config.ModelParallel, ParamsB: e.Config.ParamsBillion(),
		})
	}
	return rows
}

// RenderTableI formats Table I.
func RenderTableI(rows []TableIRow) string {
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			formatB(r.ParamsB), fmt.Sprintf("%d", r.Layers), fmt.Sprintf("%d", r.Hidden),
			fmt.Sprintf("%d", r.Heads), fmt.Sprintf("%d", r.MP),
		})
	}
	return "Table I: Transformer-based model configurations\n" +
		renderTable([]string{"size", "layers", "hidden", "heads", "MP"}, cells)
}
