// Package expt regenerates every table and figure of the paper's
// evaluation (§V–§VI) from the simulation substrate: one runner per
// experiment, each returning the rows/series the paper reports. The
// cmd/stronghold-figures binary prints them; bench_test.go at the
// repository root wraps each in a testing.B benchmark.
package expt

import (
	"fmt"
	"math"
	"strings"

	"stronghold/internal/baselines"
	"stronghold/internal/hw"
	"stronghold/internal/modelcfg"
	"stronghold/internal/perf"
)

// GeoMean returns the geometric mean of xs — the paper's aggregation
// across repeated runs (§V-D).
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var logSum float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

// methodsSingleGPU is the Figure 6a comparison set in paper order —
// the registry rows flagged SingleGPU.
var methodsSingleGPU = modelcfg.SingleGPUMethods()

// methodsOffload extends the paper set with the ported strategy-layer
// methods (ZeRO-Infinity on NVMe, Deep Optimizer States' interleaved
// placement) — the Figure 7a/8a comparison after the method registry,
// in registry display order.
var methodsOffload = func() []modelcfg.Method {
	var out []modelcfg.Method
	for _, info := range modelcfg.Methods() {
		if info.SingleGPU || info.M == modelcfg.ZeROInfinityNVMe || info.M == modelcfg.InterleavedOpt {
			out = append(out, info.M)
		}
	}
	return out
}()

// searchSpace is the configuration family the capacity experiments
// sweep, mirroring §V-B ("vary the hidden dimension … and the number of
// layers"; batch 2–16 per GPU).
var (
	searchHidden  = []int{2560, 4096, 5120}
	searchBatches = []int{2, 4, 8, 16}
)

// formatB renders billions with one decimal, the paper's unit.
func formatB(b float64) string { return fmt.Sprintf("%.1fB", b) }

// renderTable is a small fixed-width table printer shared by the
// String methods.
func renderTable(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&sb, "%-*s  ", widths[i], c)
		}
		sb.WriteString("\n")
	}
	line(header)
	for i, w := range widths {
		header[i] = strings.Repeat("-", w)
	}
	line(header)
	for _, r := range rows {
		line(r)
	}
	return sb.String()
}

// throughputOf runs method on cfg (V100 platform) and returns
// samples/second and achieved TFLOPS.
func throughputOf(method modelcfg.Method, cfg modelcfg.Config, plat hw.Platform) (samplesPerSec, tflops float64, res perf.IterationResult) {
	m := perf.NewModel(cfg, plat)
	res = baselines.Run(method, m)
	if res.OOM {
		return 0, 0, res
	}
	return res.Throughput(cfg.BatchSize), res.TFLOPS(m.TotalFlops()), res
}
