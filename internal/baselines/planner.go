package baselines

import (
	"fmt"

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
	// Every op runs on queue 0 after the one before it.
	add := func(kind plan.Kind, name string, layer int, dur sim.Time) {
		op := plan.Op{ID: plan.ID(len(it.Ops)), Kind: kind, Name: name,
			Layer: layer, Queue: 0, DurNS: dur, GPU: kind == plan.OptStep}
		if op.ID > 0 {
			op.Deps = []plan.ID{op.ID - 1}
		}
		it.Ops = append(it.Ops, op)
	}
	add(plan.ComputeFP, "fp embed", -1, embed)
	for i := 0; i < n; i++ {
		add(plan.ComputeFP, fmt.Sprintf("fp L%d", i), i, lt.FP)
	}
	add(plan.ComputeFP, "fp head+loss", -1, embed)
	for i := n - 1; i >= 0; i-- {
		add(plan.ComputeBP, fmt.Sprintf("bp L%d", i), i, lt.BP)
	}
	add(plan.ComputeBP, "bp embed", -1, embed)
	for i := 0; i < n; i++ {
		add(plan.OptStep, fmt.Sprintf("gpu adam L%d", i), i, lt.OptGPU)
	}
	add(plan.OptStep, "gpu adam embed", -1, embedAdamGPU(m))
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
	add := func(op plan.Op) plan.ID {
		op.ID = plan.ID(len(it.Ops))
		it.Ops = append(it.Ops, op)
		return op.ID
	}

	embedFP := add(plan.Op{Kind: plan.ComputeFP, Name: "fp embed",
		Layer: -1, Queue: 0, DurNS: embed})

	fpKernel := make([]plan.ID, n)
	fpRelease := make([]plan.ID, n)
	prev := embedFP
	for i := 0; i < n; i++ {
		var acqDeps []plan.ID
		if i >= 2 {
			acqDeps = []plan.ID{fpRelease[i-2]}
		}
		acq := add(plan.Op{Kind: plan.BufAcquire, Name: fmt.Sprintf("acquire L%d", i),
			Layer: i, Queue: -1, Bytes: weight, Deps: acqDeps})
		v := add(plan.Op{Kind: plan.ComputeFP, Name: fmt.Sprintf("visit L%d", i),
			Layer: i, Queue: 1, DurNS: visit, Deps: []plan.ID{prev, acq}})
		up := add(plan.Op{Kind: plan.Prefetch, Name: fmt.Sprintf("upload L%d", i),
			Layer: i, Queue: -1, Bytes: weight, DurNS: unpinned(lt.C2G), Deps: []plan.ID{v}})
		fpKernel[i] = add(plan.Op{Kind: plan.ComputeFP, Name: fmt.Sprintf("fp L%d", i),
			Layer: i, Queue: 0, DurNS: lt.FP, Deps: []plan.ID{up}})
		fpRelease[i] = add(plan.Op{Kind: plan.BufRelease, Name: fmt.Sprintf("release L%d", i),
			Layer: i, Queue: -1, Deps: []plan.ID{fpKernel[i]}})
		prev = fpKernel[i]
	}

	head := add(plan.Op{Kind: plan.ComputeFP, Name: "fp head+loss",
		Layer: -1, Queue: 0, DurNS: embed, Deps: []plan.ID{prev}})

	bpRelease := make([]plan.ID, n)
	prev = head
	for i := n - 1; i >= 0; i-- {
		// The acquire recycles a slot released two visits earlier (the
		// async gradient offload means the previous layer's slot may
		// still be draining); the previous backward kernel keeps the
		// claim inside the backward pass.
		acqDeps := []plan.ID{fpRelease[i]}
		if i+2 <= n-1 {
			acqDeps = append(acqDeps, bpRelease[i+2])
		} else {
			acqDeps = append(acqDeps, prev)
		}
		acq := add(plan.Op{Kind: plan.BufAcquire, Name: fmt.Sprintf("bp acquire L%d", i),
			Layer: i, Queue: -1, Bytes: weight, Deps: acqDeps})
		v := add(plan.Op{Kind: plan.ComputeBP, Name: fmt.Sprintf("bp visit L%d", i),
			Layer: i, Queue: 1, DurNS: visit, Deps: []plan.ID{prev, acq}})
		up := add(plan.Op{Kind: plan.Prefetch, Name: fmt.Sprintf("bp upload L%d", i),
			Layer: i, Queue: -1, Bytes: weight, DurNS: unpinned(lt.C2G), Deps: []plan.ID{v}})
		k := add(plan.Op{Kind: plan.ComputeBP, Name: fmt.Sprintf("bp L%d", i),
			Layer: i, Queue: 0, DurNS: lt.BP, Deps: []plan.ID{up}})
		grad := add(plan.Op{Kind: plan.Offload, Name: fmt.Sprintf("grad offload L%d", i),
			Layer: i, Queue: -1, Bytes: weight, DurNS: unpinned(lt.G2C), Deps: []plan.ID{k}})
		bpRelease[i] = add(plan.Op{Kind: plan.BufRelease, Name: fmt.Sprintf("bp release L%d", i),
			Layer: i, Queue: -1, Deps: []plan.ID{grad}})
		prev = k
	}

	bpEmbed := add(plan.Op{Kind: plan.ComputeBP, Name: "bp embed",
		Layer: -1, Queue: 0, DurNS: embed, Deps: []plan.ID{prev}})
	add(plan.Op{Kind: plan.OptStep, Name: "gpu adam sweep", GPU: true,
		Layer: -1, Queue: 0, DurNS: sim.Time(n) * lt.OptGPU, Deps: []plan.ID{bpEmbed}})
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
	add := func(op plan.Op) plan.ID {
		op.ID = plan.ID(len(it.Ops))
		it.Ops = append(it.Ops, op)
		return op.ID
	}

	prev := add(plan.Op{Kind: plan.ComputeFP, Name: "fp embed",
		Layer: -1, Queue: 0, DurNS: embed})
	for i := 0; i < n; i++ {
		prev = add(plan.Op{Kind: plan.ComputeFP, Name: fmt.Sprintf("fp L%d", i),
			Layer: i, Queue: 0, DurNS: lt.FP, Deps: []plan.ID{prev}})
	}
	prev = add(plan.Op{Kind: plan.ComputeFP, Name: "fp head+loss",
		Layer: -1, Queue: 0, DurNS: embed, Deps: []plan.ID{prev}})

	grads := make([]plan.ID, 0, n)
	for i := n - 1; i >= 0; i-- {
		k := add(plan.Op{Kind: plan.ComputeBP, Name: fmt.Sprintf("bp L%d", i),
			Layer: i, Queue: 0, DurNS: lt.BP, Deps: []plan.ID{prev}})
		grads = append(grads, add(plan.Op{Kind: plan.Offload, Name: fmt.Sprintf("grad offload L%d", i),
			Layer: i, Queue: -1, Bytes: gradBytes, DurNS: dur(gradBytes), Deps: []plan.ID{k}}))
		prev = k
	}
	bpEmbed := add(plan.Op{Kind: plan.ComputeBP, Name: "bp embed",
		Layer: -1, Queue: 0, DurNS: embed, Deps: []plan.ID{prev}})

	opt := add(plan.Op{Kind: plan.OptStep, Name: "cpu adam fused",
		Layer: -1, Queue: -1, DurNS: optDur,
		Deps: append(append([]plan.ID(nil), grads...), bpEmbed)})
	for i := 0; i < n; i++ {
		add(plan.Op{Kind: plan.Prefetch, Name: fmt.Sprintf("param upload L%d", i),
			Layer: i, Queue: -1, Bytes: uploadBytes, DurNS: dur(uploadBytes),
			Deps: []plan.ID{opt}})
	}
	return it
}
