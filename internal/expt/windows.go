package expt

import (
	"fmt"

	"stronghold/internal/baselines"
	"stronghold/internal/core"
	"stronghold/internal/hw"
	"stronghold/internal/modelcfg"
	"stronghold/internal/perf"
	"stronghold/internal/trace"
)

// Figure4Result is the compute/communication overlap trace of one
// STRONGHOLD iteration on the 4B model (the paper's profiling plot).
type Figure4Result struct {
	Trace      *trace.Trace
	Overlap    float64 // fraction of transfer time hidden under compute
	IterSec    float64
	Window     int
	ChromeJSON []byte
}

// Figure4 runs the 4B model with the solver-chosen window and records
// the final iteration's timeline.
func Figure4() (Figure4Result, error) {
	m := perf.NewModel(modelcfg.Config4B(), hw.V100Platform())
	tr := trace.New()
	r := baselines.RunWith(modelcfg.Stronghold, *core.NewEngine(m), tr)
	if r.OOM {
		return Figure4Result{}, fmt.Errorf("expt: figure 4 run failed: %s", r.OOMDetail)
	}
	js, err := tr.ChromeJSON()
	if err != nil {
		return Figure4Result{}, err
	}
	return Figure4Result{
		Trace: tr, Overlap: r.Overlap,
		IterSec: float64(r.IterTime) / 1e9, Window: r.FinalWindow, ChromeJSON: js,
	}, nil
}

// WindowRow is one point of Figure 9: throughput versus working-window
// size for the 1.7B and 39.4B models.
type WindowRow struct {
	Window         int
	Small1p7SPS    float64 // samples/s, 1.7B
	Large39SPS     float64 // samples/s, 39.4B
	SolverChoice   bool    // the analytically chosen window
	OOMLargeWindow bool
}

// Figure9 sweeps the window size. The paper observes throughput rising
// to a plateau; STRONGHOLD's analytical model picks the knee.
func Figure9() ([]WindowRow, int, error) {
	p := hw.V100Platform()
	small := modelcfg.Config1p7B()
	large := modelcfg.Config39p5B()
	solver := core.NewEngine(perf.NewModel(small, p))
	solver.Feat.Streams = 1
	d, err := solver.SolvedDecision()
	if err != nil {
		return nil, 0, err
	}
	var rows []WindowRow
	for _, w := range []int{1, 2, 3, 4, 6, 8, 12, 16} {
		row := WindowRow{Window: w, SolverChoice: w == d.M}
		for _, cfg := range []modelcfg.Config{small, large} {
			e := *core.NewEngine(perf.NewModel(cfg, p))
			e.Window = w
			e.Feat.Streams = 1
			r := baselines.RunWith(modelcfg.Stronghold, e, nil)
			if r.OOM {
				row.OOMLargeWindow = true
				continue
			}
			sps := r.Throughput(cfg.BatchSize)
			if cfg.Layers == small.Layers {
				row.Small1p7SPS = sps
			} else {
				row.Large39SPS = sps
			}
		}
		rows = append(rows, row)
	}
	return rows, d.M, nil
}

// RenderWindowRows formats Figure 9.
func RenderWindowRows(rows []WindowRow, solved int) string {
	var cells [][]string
	for _, r := range rows {
		mark := ""
		if r.SolverChoice {
			mark = "<- solver"
		}
		cells = append(cells, []string{
			fmt.Sprintf("%d", r.Window),
			fmt.Sprintf("%.3f", r.Small1p7SPS),
			fmt.Sprintf("%.4f", r.Large39SPS),
			mark,
		})
	}
	return fmt.Sprintf("Figure 9: throughput vs window size (solver picks m=%d)\n%s", solved,
		renderTable([]string{"window", "1.7B samples/s", "39.4B samples/s", ""}, cells))
}
