package expt

import (
	"fmt"

	"stronghold/internal/baselines"
	"stronghold/internal/hw"
	"stronghold/internal/modelcfg"
	"stronghold/internal/perf"
)

// NVMeRow is one point of Figure 10: throughput of STRONGHOLD and
// ZeRO-Infinity when layer states live on NVMe, by model size.
type NVMeRow struct {
	SizeB       float64
	ShSPS       float64 // STRONGHOLD (NVMe) samples/s
	ZinfSPS     float64 // ZeRO-Infinity (NVMe) samples/s
	SpeedupOver float64 // SH / ZI
}

// figure10Platform is the V100 server with the swap volume enlarged to
// 10 TB. Substitution note: reaching the paper's "half a trillion
// parameters" on NVMe requires ≈8 TB of state at FP32 (500e9 × 16 B),
// which exceeds the 2 TB device listed in §V-C — the paper's own
// numbers do not close, so the experiment models a larger swap volume
// and keeps every bandwidth/latency constant from the 2 TB device.
func figure10Platform() hw.Platform {
	p := hw.V100Platform()
	p.NVMe.Bytes = 16 * 1024 * hw.GB
	return p
}

// Figure10 sweeps model size with the NVMe tier enabled. Paper:
// STRONGHOLD improves throughput over ZeRO-Infinity by >8×.
func Figure10() []NVMeRow {
	p := figure10Platform()
	var rows []NVMeRow
	for _, sizeB := range []float64{40, 80, 175, 320, 500} {
		cfg := modelcfg.ConfigForSize(sizeB, 5120, 1)
		cfg.BatchSize = 2
		m := perf.NewModel(cfg, p)

		sh := baselines.Run(modelcfg.StrongholdNVMe, m)

		zi := baselines.Run(modelcfg.ZeROInfinityNVMe, m)

		row := NVMeRow{SizeB: cfg.ParamsBillion()}
		if !sh.OOM {
			row.ShSPS = sh.Throughput(cfg.BatchSize)
		}
		if !zi.OOM {
			row.ZinfSPS = zi.Throughput(cfg.BatchSize)
		}
		if row.ZinfSPS > 0 {
			row.SpeedupOver = row.ShSPS / row.ZinfSPS
		}
		rows = append(rows, row)
	}
	return rows
}

// RenderNVMeRows formats Figure 10.
func RenderNVMeRows(rows []NVMeRow) string {
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			formatB(r.SizeB),
			fmt.Sprintf("%.4f", r.ShSPS),
			fmt.Sprintf("%.4f", r.ZinfSPS),
			fmt.Sprintf("%.1fx", r.SpeedupOver),
		})
	}
	return "Figure 10: NVMe-tier throughput (samples/s)\n" +
		renderTable([]string{"size", "STRONGHOLD", "ZeRO-Infinity", "speedup"}, cells)
}
