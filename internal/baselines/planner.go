package baselines

import (
	"stronghold/internal/modelcfg"
	"stronghold/internal/perf"
	"stronghold/internal/plan"
	"stronghold/internal/sim"
)

// This file holds the baseline planners: they lower Megatron-LM's,
// L2L's and ZeRO-Offload's schedules into the same plan IR the
// STRONGHOLD engine executes, with explicit per-op durations (Op.DurNS)
// instead of flops/bytes — core.RunPlan issues every op by time.
// Running the baselines on plans gives them real traces, measured
// Overlap fractions, utilizations and fault-plan compatibility; the
// closed forms in closedform_test.go remain as cross-checks (see
// planner_test.go).

// allLayers lists layers 0..n-1: the resident set of a method that
// keeps every layer on the device.
func allLayers(n int) []int {
	layers := make([]int, n)
	for i := range layers {
		layers[i] = i
	}
	return layers
}

// embedAdamGPU is the on-GPU Adam update of the embedding, bound by
// device-memory bandwidth.
func embedAdamGPU(m perf.Model) sim.Time {
	return sim.Time(float64(m.Cfg.EmbeddingParams()*modelcfg.BytesAdamTraffic) / m.Plat.GPU.MemBandwidth * 1e9)
}

// megatronPlan is Megatron-LM's iteration as a plan: every layer stays
// resident, so one kernel queue runs the forward and backward kernels
// back to back, then the on-GPU Adam update layer by layer and over the
// embedding. Nothing crosses PCIe.
func megatronPlan(m perf.Model) *plan.Iteration {
	lt := m.Layer()
	n := m.Cfg.Layers
	embed := m.EmbeddingTime()
	resident := allLayers(n)
	it := &plan.Iteration{
		Layers: n, Window: n, Queues: 1,
		EntryResident: resident, ExitResident: resident,
	}
	it.Reserve(PlanSize(modelcfg.Megatron, n))
	// Every op runs on queue 0 after the one before it, the only
	// entry of prev once there is one.
	var prev []plan.ID
	add := func(kind plan.Kind, label plan.Label, layer int, dur sim.Time) {
		op := plan.Op{Kind: kind, Label: label, Layer: int32(layer), Queue: 0, DurNS: dur, GPU: kind == plan.OptStep}
		prev = append(prev[:0], it.Add(op, prev...))
	}
	add(plan.ComputeFP, plan.LabelFPEmbed, -1, embed)
	for i := 0; i < n; i++ {
		add(plan.ComputeFP, plan.LabelFP, i, lt.FP)
	}
	add(plan.ComputeFP, plan.LabelFPHead, -1, embed)
	for i := n - 1; i >= 0; i-- {
		add(plan.ComputeBP, plan.LabelBP, i, lt.BP)
	}
	add(plan.ComputeBP, plan.LabelBPEmbed, -1, embed)
	for i := 0; i < n; i++ {
		add(plan.OptStep, plan.LabelGPUAdam, i, lt.OptGPU)
	}
	add(plan.OptStep, plan.LabelGPUAdamEmbed, -1, embedAdamGPU(m))
	return it
}

// l2lPlan is L2L's movement loop as a plan: one Transformer block is
// streamed in before every visit, in both passes, behind the per-visit
// software overhead of its Python tear-down/re-register loop. The
// backward pass offloads each layer's gradients asynchronously — the
// copy-back hides under the next visit's overhead, which is why the
// plan needs two buffer slots (one resident block, one draining) and a
// two-deep release→acquire recycle: a one-deep recycle would put the
// gradient copy back on the critical path.
func l2lPlan(m perf.Model, pressure float64) *plan.Iteration {
	lt := m.Layer()
	n := m.Cfg.Layers
	weight := m.Cfg.LayerWeightBytes()
	unpinned := func(t sim.Time) sim.Time {
		return sim.Time(float64(t) / m.Plat.PCIe.UnpinnedFactor)
	}
	visit := sim.Time(float64(l2lVisitOverheadNS) * pressure)
	embed := m.EmbeddingTime()

	it := &plan.Iteration{Layers: n, Window: 1, Queues: 2, BudgetSlots: 2}
	it.Reserve(PlanSize(modelcfg.L2L, n))
	embedFP := it.Add(plan.Op{Kind: plan.ComputeFP, Label: plan.LabelFPEmbed, Layer: -1, Queue: 0, DurNS: embed})

	fpKernel := make([]plan.ID, n)
	fpRelease := make([]plan.ID, n)
	prev := embedFP
	for i := 0; i < n; i++ {
		l := int32(i)
		var recycle []plan.ID
		if i >= 2 {
			recycle = fpRelease[i-2 : i-1]
		}
		acq := it.Add(plan.Op{Kind: plan.BufAcquire, Label: plan.LabelAcquire, Layer: l, Queue: -1, Bytes: weight},
			recycle...)
		v := it.Add(plan.Op{Kind: plan.ComputeFP, Label: plan.LabelVisit, Layer: l, Queue: 1, DurNS: visit}, prev, acq)
		up := it.Add(plan.Op{Kind: plan.Prefetch, Label: plan.LabelUpload, Layer: l, Queue: -1, Bytes: weight,
			DurNS: unpinned(lt.C2G)}, v)
		fpKernel[i] = it.Add(plan.Op{Kind: plan.ComputeFP, Label: plan.LabelFP, Layer: l, Queue: 0, DurNS: lt.FP}, up)
		fpRelease[i] = it.Add(plan.Op{Kind: plan.BufRelease, Label: plan.LabelRelease, Layer: l, Queue: -1}, fpKernel[i])
		prev = fpKernel[i]
	}

	head := it.Add(plan.Op{Kind: plan.ComputeFP, Label: plan.LabelFPHead, Layer: -1, Queue: 0, DurNS: embed}, prev)

	bpRelease := make([]plan.ID, n)
	prev = head
	for i := n - 1; i >= 0; i-- {
		l := int32(i)
		// The acquire recycles a slot released two visits earlier (the
		// async gradient offload means the previous layer's slot may
		// still be draining); the previous backward kernel keeps the
		// claim inside the backward pass.
		recycle := prev
		if i+2 <= n-1 {
			recycle = bpRelease[i+2]
		}
		acq := it.Add(plan.Op{Kind: plan.BufAcquire, Label: plan.LabelBPAcquire, Layer: l, Queue: -1, Bytes: weight},
			fpRelease[i], recycle)
		v := it.Add(plan.Op{Kind: plan.ComputeBP, Label: plan.LabelBPVisit, Layer: l, Queue: 1, DurNS: visit}, prev, acq)
		up := it.Add(plan.Op{Kind: plan.Prefetch, Label: plan.LabelBPUpload, Layer: l, Queue: -1, Bytes: weight,
			DurNS: unpinned(lt.C2G)}, v)
		k := it.Add(plan.Op{Kind: plan.ComputeBP, Label: plan.LabelBP, Layer: l, Queue: 0, DurNS: lt.BP}, up)
		grad := it.Add(plan.Op{Kind: plan.Offload, Label: plan.LabelGradOffload, Layer: l, Queue: -1, Bytes: weight,
			DurNS: unpinned(lt.G2C)}, k)
		bpRelease[i] = it.Add(plan.Op{Kind: plan.BufRelease, Label: plan.LabelBPRelease, Layer: l, Queue: -1}, grad)
		prev = k
	}

	bpEmbed := it.Add(plan.Op{Kind: plan.ComputeBP, Label: plan.LabelBPEmbed, Layer: -1, Queue: 0, DurNS: embed}, prev)
	it.Add(plan.Op{Kind: plan.OptStep, Label: plan.LabelGPUAdamSweep, GPU: true, Layer: -1, Queue: 0,
		DurNS: sim.Time(n) * lt.OptGPU}, bpEmbed)
	return it
}

// zeroOffloadPlan is ZeRO-Offload's schedule as a plan: parameters stay
// resident on the GPU (the whole layer range is entry- and
// exit-resident, so the plan has no buffer traffic), gradients stream
// to the host per layer during the backward pass, then the single fused
// CPU Adam runs over all parameters and the updated parameters upload
// back — the two serial phases that cap its efficiency. The pressure
// penalty stretches the allocator-sensitive phases (transfers and the
// host round-trip), matching the closed form's overhead term.
func zeroOffloadPlan(m perf.Model, pressure float64) *plan.Iteration {
	lt := m.Layer()
	n := m.Cfg.Layers
	params := m.Cfg.TotalParams() / int64(m.Cfg.ModelParallel)
	gradBytes := params * modelcfg.BytesGrad / int64(n)
	uploadBytes := params * modelcfg.BytesParam / int64(n)
	perDir := m.Plat.PCIe.BandwidthPerDir
	dur := func(bytes int64) sim.Time {
		return sim.Time(float64(bytes) / perDir * 1e9 * pressure)
	}
	optDur := sim.Time(float64(params*modelcfg.BytesAdamTraffic) / zeroOffloadCPUAdamBW * 1e9 * pressure)
	embed := m.EmbeddingTime()

	resident := allLayers(n)
	it := &plan.Iteration{
		Layers: n, Window: n, Queues: 1,
		EntryResident: resident, ExitResident: resident,
	}
	it.Reserve(PlanSize(modelcfg.ZeROOffload, n))
	prev := it.Add(plan.Op{Kind: plan.ComputeFP, Label: plan.LabelFPEmbed, Layer: -1, Queue: 0, DurNS: embed})
	for i := 0; i < n; i++ {
		prev = it.Add(plan.Op{Kind: plan.ComputeFP, Label: plan.LabelFP, Layer: int32(i), Queue: 0, DurNS: lt.FP}, prev)
	}
	prev = it.Add(plan.Op{Kind: plan.ComputeFP, Label: plan.LabelFPHead, Layer: -1, Queue: 0, DurNS: embed}, prev)

	// The fused optimizer waits on every gradient offload, then the
	// backward embedding.
	optDeps := make([]plan.ID, 0, n+1)
	for i := n - 1; i >= 0; i-- {
		k := it.Add(plan.Op{Kind: plan.ComputeBP, Label: plan.LabelBP, Layer: int32(i), Queue: 0, DurNS: lt.BP}, prev)
		optDeps = append(optDeps, it.Add(plan.Op{Kind: plan.Offload, Label: plan.LabelGradOffload, Layer: int32(i),
			Queue: -1, Bytes: gradBytes, DurNS: dur(gradBytes)}, k))
		prev = k
	}
	optDeps = append(optDeps, it.Add(plan.Op{Kind: plan.ComputeBP, Label: plan.LabelBPEmbed, Layer: -1, Queue: 0,
		DurNS: embed}, prev))

	opt := it.Add(plan.Op{Kind: plan.OptStep, Label: plan.LabelCPUAdamFused, Layer: -1, Queue: -1, DurNS: optDur},
		optDeps...)
	for i := 0; i < n; i++ {
		it.Add(plan.Op{Kind: plan.Prefetch, Label: plan.LabelParamUpload, Layer: int32(i), Queue: -1,
			Bytes: uploadBytes, DurNS: dur(uploadBytes)}, opt)
	}
	return it
}
