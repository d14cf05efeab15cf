package expt

import (
	"fmt"

	"stronghold/internal/baselines"
	"stronghold/internal/hw"
	"stronghold/internal/modelcfg"
	"stronghold/internal/perf"
)

// StreamRow is one bar of Figure 11: STRONGHOLD's multi-stream speedup
// over Megatron-LM at a given batch size.
type StreamRow struct {
	BatchSize int
	Streams   int
	Speedup   float64 // over Megatron-LM at the same batch
}

// Figure11 measures the §IV-A optimization across batch sizes on a
// 1.3B model — the largest configuration Megatron-LM trains at *every*
// batch size in our byte-accurate accounting (at bs=16 the 1.7B model's
// 27.2 GB of FP32 states plus activations no longer fit a 32 GB V100).
// Paper: at least 1.7× (up to 2.1×) over Megatron-LM.
func Figure11() []StreamRow {
	p := hw.V100Platform()
	var rows []StreamRow
	for _, bs := range []int{2, 4, 8, 16} {
		cfg := modelcfg.NewConfig(16, 2560, 16) // 1.3B
		cfg.BatchSize = bs
		m := perf.NewModel(cfg, p)
		mega := baselines.Run(modelcfg.Megatron, m)
		sh := baselines.Run(modelcfg.Stronghold, m)

		row := StreamRow{BatchSize: bs, Streams: sh.Streams}
		if !mega.OOM && !sh.OOM {
			row.Speedup = float64(mega.IterTime) / float64(sh.IterTime)
		}
		rows = append(rows, row)
	}
	return rows
}

// RenderStreamRows formats Figure 11.
func RenderStreamRows(rows []StreamRow) string {
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			fmt.Sprintf("%d", r.BatchSize),
			fmt.Sprintf("%d", r.Streams),
			fmt.Sprintf("%.2fx", r.Speedup),
		})
	}
	return "Figure 11: multi-stream speedup over Megatron-LM (1.7B)\n" +
		renderTable([]string{"batch", "streams", "speedup"}, cells)
}
