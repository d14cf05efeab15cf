package expt

import (
	"fmt"

	"stronghold/internal/baselines"
	"stronghold/internal/cluster"
	"stronghold/internal/hw"
	"stronghold/internal/modelcfg"
	"stronghold/internal/perf"
	"stronghold/internal/sim"
)

// ThroughputRow is one bar of Figure 7: samples/second and achieved
// TFLOPS at a method's largest trainable model.
type ThroughputRow struct {
	Method        modelcfg.Method
	ModelB        float64
	SamplesPerSec float64
	TFLOPS        float64
}

// Figure7a measures throughput at each method's largest model on the
// V100 — the paper set plus the ported strategy-layer methods. The
// paper reports STRONGHOLD at 6–9 TFLOPS versus L2L 1.88, ZeRO-Offload
// 0.59 and ZeRO-Infinity 0.53.
func Figure7a() []ThroughputRow {
	p := hw.V100Platform()
	var rows []ThroughputRow
	for _, m := range methodsOffload {
		cfg := largestConfigFor(m, 1, p.GPU.MemBytes, p.CPU.UsableMemBytes, p.NVMe.Bytes)
		sps, tf, _ := throughputOf(m, cfg, p)
		rows = append(rows, ThroughputRow{Method: m, ModelB: cfg.ParamsBillion(), SamplesPerSec: sps, TFLOPS: tf})
	}
	return rows
}

// Figure7b is the cluster variant: throughput at each method's largest
// model across the 8-node A10 platform under 8-way model parallelism
// (STRONGHOLD runs data-parallel after the §III-F conversion when the
// model fits a node, model-parallel otherwise).
func Figure7b() []ThroughputRow {
	p := hw.A10ClusterPlatform()
	var rows []ThroughputRow
	for _, m := range methodsSingleGPU {
		cfg := largestConfigFor(m, p.Nodes, p.GPU.MemBytes, p.CPU.UsableMemBytes, p.NVMe.Bytes)
		res := cluster.Run(cluster.Setup{Plat: p, Cfg: cfg, Method: m, HeteroCollectives: true})
		model := perf.NewModel(cfg, p)
		row := ThroughputRow{Method: m, ModelB: cfg.ParamsBillion()}
		if !res.OOM {
			row.SamplesPerSec = res.Throughput(cfg.BatchSize)
			row.TFLOPS = res.TFLOPS(model.TotalFlops())
		}
		rows = append(rows, row)
	}
	return rows
}

// RelThroughputRow is one bar of Figures 1b and 8a: throughput on the
// common 1.7B model relative to Megatron-LM.
type RelThroughputRow struct {
	Method        modelcfg.Method
	SamplesPerSec float64
	RelMegatron   float64
}

// Figure8a measures every method on the common 1.7B model — the paper
// set plus the ported strategy-layer methods. Paper: L2L 22.2% of
// Megatron, ZeRO-Offload/Infinity <57%, STRONGHOLD the only one above
// Megatron.
func Figure8a() []RelThroughputRow {
	return relThroughput(methodsOffload)
}

// Figure1b is the motivation subset of Figure 8a.
func Figure1b() []RelThroughputRow {
	return relThroughput([]modelcfg.Method{
		modelcfg.Megatron, modelcfg.ZeROOffload,
		modelcfg.ZeROInfinity, modelcfg.ZeROInfinityNVMe,
	})
}

func relThroughput(methods []modelcfg.Method) []RelThroughputRow {
	p := hw.V100Platform()
	cfg := modelcfg.Config1p7B()
	megaSPS, _, _ := throughputOf(modelcfg.Megatron, cfg, p)
	var rows []RelThroughputRow
	for _, m := range methods {
		sps, _, _ := throughputOf(m, cfg, p)
		rows = append(rows, RelThroughputRow{Method: m, SamplesPerSec: sps, RelMegatron: sps / megaSPS})
	}
	return rows
}

// ScalingRow is one point of Figure 8b: iteration time versus model
// size for STRONGHOLD, against a perfect-linear projection from the
// 1.7B point.
type ScalingRow struct {
	SizeB       float64
	IterSec     float64
	LinearSec   float64
	DeviationPc float64
}

// Figure8b sweeps the hidden-2560 Table I family from 1.7B to 39.4B.
func Figure8b() []ScalingRow {
	p := hw.V100Platform()
	var rows []ScalingRow
	var baseSec, baseB float64
	for _, layers := range []int{20, 50, 83, 150, 260, 380, 500} {
		cfg := modelcfg.NewConfig(layers, 2560, 16)
		r := baselines.Run(modelcfg.Stronghold, perf.NewModel(cfg, p))
		if r.OOM {
			continue
		}
		sec := sim.Seconds(r.IterTime)
		b := cfg.ParamsBillion()
		if baseSec == 0 {
			baseSec, baseB = sec, b
		}
		linear := baseSec * b / baseB
		rows = append(rows, ScalingRow{
			SizeB: b, IterSec: sec, LinearSec: linear,
			DeviationPc: (sec - linear) / linear * 100,
		})
	}
	return rows
}

// RenderThroughputRows formats Figure 7 rows.
func RenderThroughputRows(title string, rows []ThroughputRow) string {
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Method.String(), formatB(r.ModelB),
			fmt.Sprintf("%.3f", r.SamplesPerSec), fmt.Sprintf("%.2f", r.TFLOPS),
		})
	}
	return fmt.Sprintf("%s\n%s", title,
		renderTable([]string{"method", "model", "samples/s", "TFLOPS"}, cells))
}

// RenderRelRows formats Figure 1b/8a rows.
func RenderRelRows(title string, rows []RelThroughputRow) string {
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Method.String(), fmt.Sprintf("%.3f", r.SamplesPerSec),
			fmt.Sprintf("%.1f%%", r.RelMegatron*100),
		})
	}
	return fmt.Sprintf("%s\n%s", title,
		renderTable([]string{"method", "samples/s", "vs Megatron"}, cells))
}

// RenderScalingRows formats Figure 8b rows.
func RenderScalingRows(title string, rows []ScalingRow) string {
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			formatB(r.SizeB), fmt.Sprintf("%.2fs", r.IterSec),
			fmt.Sprintf("%.2fs", r.LinearSec), fmt.Sprintf("%+.1f%%", r.DeviationPc),
		})
	}
	return fmt.Sprintf("%s\n%s", title,
		renderTable([]string{"size", "iter", "linear", "deviation"}, cells))
}
