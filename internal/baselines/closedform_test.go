package baselines

import (
	"stronghold/internal/modelcfg"
	"stronghold/internal/perf"
	"stronghold/internal/sim"
)

// The closed forms below price each baseline's iteration analytically.
// Production runs the planner-emitted plans; these are the independent
// oracles the schedules are checked against (planner_test.go,
// strategies_test.go).

// computeTotal is the pure-kernel time every method pays: all layers'
// FP+BP plus the embedding/head work and the GPU-side norm of the loss.
func computeTotal(m perf.Model) sim.Time {
	lt := m.Layer()
	n := sim.Time(m.Cfg.Layers)
	return n*(lt.FP+lt.BP) + 3*m.EmbeddingTime()
}

// megatronIter is the closed form of megatronPlan: everything
// resident; the only non-kernel cost is the on-GPU optimizer sweep.
func megatronIter(m perf.Model) sim.Time {
	lt := m.Layer()
	n := sim.Time(m.Cfg.Layers)
	gpuOptEmbed := sim.Time(float64(m.Cfg.EmbeddingParams()*modelcfg.BytesAdamTraffic) / m.Plat.GPU.MemBandwidth * 1e9)
	return computeTotal(m) + n*lt.OptGPU + gpuOptEmbed
}

// l2lIter is the closed-form cross-check for l2lPlan: one Transformer
// block resident at a time, parameters moved before each layer in both
// directions ("it simply serializes computation with data transfer for
// each DNN layer", §VI-B), with the per-visit software overhead of its
// Python movement loop; the optimizer runs on the GPU over the full
// moment buffers. It prices the gradient copy-back fully serial, so it
// upper-bounds the plan-driven time, which hides that copy under the
// next visit's overhead (see planner_test.go for the two-sided bound).
func l2lIter(m perf.Model, pressure float64) sim.Time {
	lt := m.Layer()
	n := sim.Time(m.Cfg.Layers)
	unpinned := func(t sim.Time) sim.Time {
		return sim.Time(float64(t) / m.Plat.PCIe.UnpinnedFactor)
	}
	perFP := lt.FP + unpinned(lt.C2G) + sim.Time(float64(l2lVisitOverheadNS)*pressure)
	perBP := lt.BP + unpinned(lt.C2G) + unpinned(lt.G2C) + sim.Time(float64(l2lVisitOverheadNS)*pressure)
	return n*(perFP+perBP) + 3*m.EmbeddingTime() + n*lt.OptGPU
}

// zeroOffloadIter is the closed-form cross-check for zeroOffloadPlan:
// parameters stay on the GPU; gradients stream to the
// CPU during BP (mostly overlapped), the single fused CPU optimizer
// updates all parameters, and updated parameters upload back — the two
// serial phases that cap its efficiency (§VI-B: "a large portion of the
// CPU-GPU data transfer and computation cannot overlap due to their CPU
// optimizer implementation").
func zeroOffloadIter(m perf.Model, pressure float64) sim.Time {
	params := m.Cfg.TotalParams() / int64(m.Cfg.ModelParallel)
	grads := sim.Time(float64(params*modelcfg.BytesGrad) / m.Plat.PCIe.BandwidthPerDir * 1e9)
	upload := sim.Time(float64(params*modelcfg.BytesParam) / m.Plat.PCIe.BandwidthPerDir * 1e9)
	opt := sim.Time(float64(params*modelcfg.BytesAdamTraffic) / zeroOffloadCPUAdamBW * 1e9)
	compute := computeTotal(m)
	bpTotal := sim.Time(m.Cfg.Layers) * m.Layer().BP
	exposedGrads := max(0, grads-bpTotal/2)
	overhead := float64(exposedGrads+opt+upload) * pressure
	return compute + sim.Time(overhead)
}

// zeroInfinityIter: every layer's states stream between CPU (or NVMe)
// and GPU each pass with the per-layer refactoring copy (§VI-A), so FP
// and BP each pace at max(kernel, transfer); the CPU optimizer phase is
// half-overlapped like ZeRO-Offload.
func zeroInfinityIter(m perf.Model, pressure float64, nvme bool) sim.Time {
	lt := m.Layer()
	n := sim.Time(m.Cfg.Layers)
	c2g := sim.Time(float64(lt.C2G) * zeroInfinityVolumeFactor)
	g2c := sim.Time(float64(lt.G2C) * zeroInfinityVolumeFactor)
	perFP := max(lt.FP, c2g) + zeroInfinityRefactorNS
	perBP := max(lt.BP, c2g+g2c) + zeroInfinityRefactorNS
	params := m.Cfg.TotalParams() / int64(m.Cfg.ModelParallel)
	opt := sim.Time(float64(params*modelcfg.BytesAdamTraffic) / zeroOffloadCPUAdamBW * 1e9 / 2)
	iter := n*(perFP+perBP) + 3*m.EmbeddingTime() + sim.Time(float64(opt)*pressure)
	if nvme {
		// States live on NVMe and are demand-paged per layer with the
		// small-block access pattern that destroys SSD throughput.
		bytes := float64(params*zeroInfinityNVMeBytesPerParam) / float64(m.Cfg.Layers)
		perLayerIO := sim.Time(bytes/(m.Plat.NVMe.ReadBW*zeroInfinityNVMeRandomFactor)*1e9) +
			sim.Time(bytes/(m.Plat.NVMe.WriteBW*zeroInfinityNVMeRandomFactor)*1e9)
		iter += 2 * n * perLayerIO
	}
	return iter
}

// interleavedOptIter is the closed-form cross-check for
// interleavedOptPlan: every subgroup update overlaps the remaining
// backward compute, so the iteration is pure compute plus the longer
// of the embedding's device-side update and the final subgroup's
// drain (gradient offload, CPU share, parameter upload) after the
// last backward kernel.
func interleavedOptIter(m perf.Model, pressure float64) sim.Time {
	params := m.Cfg.TotalParams() / int64(m.Cfg.ModelParallel)
	perLayer := params / int64(m.Cfg.Layers)
	share := interleavedGPUShare
	xfer := func(bytes int64) sim.Time {
		return sim.Time(float64(bytes) / m.Plat.PCIe.BandwidthPerDir * 1e9 * pressure)
	}
	gradBytes := perLayer * modelcfg.BytesGrad
	upBytes := int64((1 - share) * float64(perLayer*modelcfg.BytesParam))
	cpuDur := sim.Time((1 - share) * float64(perLayer*modelcfg.BytesAdamTraffic) / interleavedCPUAdamBW * 1e9 * pressure)
	gpuEmbedOpt := sim.Time(float64(m.Cfg.EmbeddingParams()*modelcfg.BytesAdamTraffic) / m.Plat.GPU.MemBandwidth * 1e9)
	compute := computeTotal(m)
	drain := xfer(gradBytes) + cpuDur + xfer(upBytes)
	return compute + max(gpuEmbedOpt, drain-m.EmbeddingTime())
}
