package expt

import (
	"fmt"

	"stronghold/internal/hw"
	"stronghold/internal/modelcfg"
)

// SizeRow is one bar of Figure 6: a method's smallest and largest
// maximum-trainable size across the §V-B configuration family.
type SizeRow struct {
	Method     modelcfg.Method
	MinB, MaxB float64
	// PaperB is the value the paper reports for the headline (max)
	// case, for side-by-side comparison; 0 when the paper gives none.
	PaperB float64
}

// Figure6a reproduces "the largest trainable model size on a 32GB V100
// GPU": Megatron 1.7B, L2L/ZeRO-Offload ≈6B, ZeRO-Infinity 20.6B,
// STRONGHOLD 39.5B.
func Figure6a() []SizeRow {
	p := hw.V100Platform()
	paper := map[modelcfg.Method]float64{
		modelcfg.Megatron:     1.7,
		modelcfg.L2L:          6.0,
		modelcfg.ZeROOffload:  6.0,
		modelcfg.ZeROInfinity: 20.6,
		modelcfg.Stronghold:   39.5,
	}
	var rows []SizeRow
	for _, m := range methodsSingleGPU {
		minB, maxB := largestFor(m, 1, p.GPU.MemBytes, p.CPU.UsableMemBytes, p.NVMe.Bytes)
		rows = append(rows, SizeRow{Method: m, MinB: minB, MaxB: maxB, PaperB: paper[m]})
	}
	return rows
}

// Figure6b reproduces the cluster version (8×A10, 8-way model
// parallelism): ZeRO-Infinity 56.9B, STRONGHOLD 82.1B.
func Figure6b() []SizeRow {
	p := hw.A10ClusterPlatform()
	paper := map[modelcfg.Method]float64{
		modelcfg.ZeROInfinity: 56.9,
		modelcfg.Stronghold:   82.1,
	}
	var rows []SizeRow
	for _, m := range methodsSingleGPU {
		minB, maxB := largestFor(m, p.Nodes, p.GPU.MemBytes, p.CPU.UsableMemBytes, p.NVMe.Bytes)
		rows = append(rows, SizeRow{Method: m, MinB: minB, MaxB: maxB, PaperB: paper[m]})
	}
	return rows
}

// Figure1a is the motivation subset of Figure 6a (Megatron vs
// ZeRO-Offload vs ZeRO-Infinity, ±NVMe).
func Figure1a() []SizeRow {
	p := hw.V100Platform()
	var rows []SizeRow
	for _, m := range []modelcfg.Method{
		modelcfg.Megatron, modelcfg.ZeROOffload,
		modelcfg.ZeROInfinity, modelcfg.ZeROInfinityNVMe,
	} {
		minB, maxB := largestFor(m, 1, p.GPU.MemBytes, p.CPU.UsableMemBytes, p.NVMe.Bytes)
		rows = append(rows, SizeRow{Method: m, MinB: minB, MaxB: maxB})
	}
	return rows
}

// RenderSizeRows formats capacity rows as a table.
func RenderSizeRows(title string, rows []SizeRow) string {
	var cells [][]string
	for _, r := range rows {
		paper := "-"
		if r.PaperB > 0 {
			paper = formatB(r.PaperB)
		}
		cells = append(cells, []string{r.Method.String(), formatB(r.MinB), formatB(r.MaxB), paper})
	}
	return fmt.Sprintf("%s\n%s", title,
		renderTable([]string{"method", "min", "max", "paper"}, cells))
}

// largestFor searches the §V-B family for the biggest model method can
// train on the platform capacities, returning (minAcrossSettings,
// maxAcrossSettings) in billions — the paper's Fig. 6 min-max bars.
func largestFor(method modelcfg.Method, mp int, gpuBytes, hostBytes, diskBytes int64) (minB, maxB float64) {
	minB = -1
	for _, h := range searchHidden {
		for _, bs := range searchBatches {
			b := modelcfg.LargestTrainable(method, h, mp, []int{bs}, 8, gpuBytes, hostBytes, diskBytes)
			if b > maxB {
				maxB = b
			}
			if b > 0 && (minB < 0 || b < minB) {
				minB = b
			}
		}
	}
	if minB < 0 {
		minB = 0
	}
	return minB, maxB
}

// largestConfigFor returns a concrete config achieving (approximately)
// method's largest trainable size — what Figure 7 measures throughput
// on.
func largestConfigFor(method modelcfg.Method, mp int, gpuBytes, hostBytes, diskBytes int64) modelcfg.Config {
	bestB := 0.0
	var best modelcfg.Config
	for _, h := range searchHidden {
		for _, bs := range searchBatches {
			b := modelcfg.LargestTrainable(method, h, mp, []int{bs}, 8, gpuBytes, hostBytes, diskBytes)
			if b > bestB {
				bestB = b
				c := modelcfg.ConfigForSize(b, h, mp)
				c.BatchSize = bs
				best = c
			}
		}
	}
	return best
}
