package baselines

import (
	"fmt"

	"stronghold/internal/modelcfg"
	"stronghold/internal/perf"
	"stronghold/internal/plan"
	"stronghold/internal/sim"
)

// This file holds the strategy planners added with the offload-method
// registry (modelcfg.MethodInfo): ZeRO-Infinity's streamed schedule on
// CPU RAM or NVMe demand paging, and Deep Optimizer States' interleaved
// CPU/GPU optimizer placement — lowered onto the same plan IR as
// l2lPlan and zeroOffloadPlan so they produce real traces, measured
// overlap and degrade under fault plans. methodPlan is the
// registry-driven dispatch RunWith uses; the closed forms in
// closedform_test.go remain as cross-checks (strategies_test.go).

// methodPlan lowers a baseline method into its iteration plan. The
// caller has already checked the footprint; pressure is the
// allocator-pressure penalty for this model on this platform (Megatron,
// all-resident, has no allocator churn to penalize).
func methodPlan(method modelcfg.Method, m perf.Model, pressure float64) (*plan.Iteration, error) {
	switch method {
	case modelcfg.Megatron:
		return megatronPlan(m), nil
	case modelcfg.L2L:
		return l2lPlan(m, pressure), nil
	case modelcfg.ZeROOffload:
		return zeroOffloadPlan(m, pressure), nil
	case modelcfg.ZeROInfinity:
		return zeroInfinityPlan(m, pressure, false), nil
	case modelcfg.ZeROInfinityNVMe:
		return zeroInfinityPlan(m, pressure, true), nil
	case modelcfg.InterleavedOpt:
		return interleavedOptPlan(m, pressure), nil
	}
	return nil, fmt.Errorf("baselines: no planner for method %s", method)
}

// PlanSize is the exact size of method's plan at n ≥ 1 layers, in
// closed form: the planner reserves exactly this much (Graph.Reserve),
// and a cost model can read a run's work from it without planning. It
// is zero for a method with no baseline planner. No baseline plan
// carries cross-iteration dependencies.
func PlanSize(method modelcfg.Method, n int) plan.Size {
	// recycles is how many of a pass's n acquires (or subgroups) recycle
	// the slot freed two layers earlier: all but the first two.
	recycles := max(0, n-2)
	switch method {
	case modelcfg.Megatron:
		// One chain on queue 0 — embedding, n forward kernels, head, n
		// backward kernels, backward embedding, n layer updates and the
		// embedding's — each op after the first waiting on the one
		// before.
		return plan.Size{Ops: 3*n + 4, Deps: 3*n + 3}
	case modelcfg.L2L:
		// The embedding; forward: acquire, visit, upload, kernel and
		// release per layer (five edges, plus the recycles); the head;
		// backward: acquire, visit, upload, kernel, gradient offload and
		// release (eight edges); the backward embedding and the GPU
		// sweep.
		return plan.Size{Ops: 1 + 5*n + 1 + 6*n + 2, Deps: 5*n + recycles + 1 + 8*n + 2}
	case modelcfg.ZeROOffload:
		// The forward chain with its head; a kernel and a gradient
		// offload per layer; the backward embedding; the fused optimizer
		// after every offload and the backward embedding; an upload per
		// layer after it.
		return plan.Size{Ops: n + 2 + 2*n + 2 + n, Deps: n + 1 + 2*n + 1 + (n + 1) + n}
	case modelcfg.ZeROInfinity, modelcfg.ZeROInfinityNVMe:
		// The embedding; forward: acquire, fetch, refactor, kernel and
		// release per layer (five edges, plus the recycles); the head;
		// backward: acquire, fetch, refactor, kernel, gradient offload and
		// release (eight edges, plus a recycle for every acquire but the
		// last layer's, which takes a forward slot instead); the backward
		// embedding and the fused optimizer after every offload and it.
		s := plan.Size{Ops: 1 + 5*n + 1 + 6*n + 2, Deps: 5*n + recycles + 1 + 8*n + max(0, n-1) + 1 + (n + 1)}
		if method == modelcfg.ZeROInfinityNVMe {
			// A page-in and a page-out per visit, both passes: the fetch
			// also waits on the page-in, which follows the previous kernel
			// and recycles the ring slot of the page-out two earlier (all
			// but the first two page-ins); the page-out follows the
			// kernel or the gradient offload.
			s.Ops += 4 * n
			s.Deps += 2*n + 2*n + (2*n - 2) + 2*n
		}
		return s
	case modelcfg.InterleavedOpt:
		// The forward chain with its head; per layer the kernel, gradient
		// offload, CPU share, moment fetch (plus the recycles), GPU share,
		// moment write-back, parameter upload and a three-way join; the
		// backward embedding and its GPU update.
		return plan.Size{Ops: n + 2 + 8*n + 2, Deps: n + 1 + 10*n + recycles + 2}
	}
	return plan.Size{}
}

// PlanFor builds the validated iteration plan a baseline method would
// execute for this model — what the trace and figure commands render.
// It fails for methods the baseline engine does not plan (the
// core-engine and cluster methods).
func PlanFor(method modelcfg.Method, m perf.Model) (*plan.Iteration, error) {
	info := modelcfg.Lookup(method)
	if info == nil || info.Engine != modelcfg.EngineBaseline {
		return nil, fmt.Errorf("baselines: method %s is not a baseline", method)
	}
	fp := modelcfg.Footprint(method, m.Cfg, 0, 1)
	pressure := pressurePenalty(float64(fp.GPU) / float64(m.Plat.GPU.MemBytes))
	it, err := methodPlan(method, m, pressure)
	if err != nil {
		return nil, err
	}
	if err := plan.Validate(it); err != nil {
		return nil, err
	}
	return it, nil
}

// zeroInfinityPlan is ZeRO-Infinity's schedule as a plan: every layer's
// partitioned states stream host→device before each visit in both
// passes (at twice STRONGHOLD's weight-only volume — parameters plus
// partition metadata and gradient buffers), each visit pays the
// per-layer runtime refactoring copy on the host loop (§VI-A), and the
// fused CPU optimizer runs over all parameters at the end, its
// half-overlap with the backward tail priced into the explicit
// duration exactly as in the closed form. The device side is a
// two-slot streamed window like L2L's (one resident block, one in
// flight). In NVMe mode the states live on secondary storage and are
// demand-paged per visit: the page-in is issued only when the layer is
// needed — behind the previous kernel, nothing reads ahead — and every
// page-in recycles the two-slot host staging ring from the page-out
// two epochs earlier, which serializes the small-block I/O with
// compute; that synchronous paging is the collapse the paper measures
// (Fig. 1b).
func zeroInfinityPlan(m perf.Model, pressure float64, nvme bool) *plan.Iteration {
	lt := m.Layer()
	n := m.Cfg.Layers
	volBytes := int64(float64(m.Cfg.LayerWeightBytes()) * zeroInfinityVolumeFactor)
	c2g := sim.Time(float64(lt.C2G) * zeroInfinityVolumeFactor)
	g2c := sim.Time(float64(lt.G2C) * zeroInfinityVolumeFactor)
	params := m.Cfg.TotalParams() / int64(m.Cfg.ModelParallel)
	optDur := sim.Time(float64(params*modelcfg.BytesAdamTraffic) / zeroOffloadCPUAdamBW * 1e9 / 2 * pressure)
	embed := m.EmbeddingTime()

	var ioBytes int64
	var readDur, writeDur sim.Time
	if nvme {
		bytes := float64(params*zeroInfinityNVMeBytesPerParam) / float64(n)
		ioBytes = int64(bytes)
		readDur = sim.Time(bytes / (m.Plat.NVMe.ReadBW * zeroInfinityNVMeRandomFactor) * 1e9)
		writeDur = sim.Time(bytes / (m.Plat.NVMe.WriteBW * zeroInfinityNVMeRandomFactor) * 1e9)
	}

	it := &plan.Iteration{Layers: n, Window: 1, Queues: 2, BudgetSlots: 2}
	method := modelcfg.ZeROInfinity
	if nvme {
		method = modelcfg.ZeROInfinityNVMe
		it.NVMe = true
		it.RingSlots = 2
	}
	it.Reserve(PlanSize(method, n))
	// spills is the global page-out order; page-in k recycles the ring
	// slot of page-out k-2 (the two-slot staging ring), which is also
	// the explicit edge the validator's funding argument needs.
	var spills []plan.ID
	if nvme {
		spills = make([]plan.ID, 0, 2*n)
	}
	stage := func(label plan.Label, layer int32, write bool, deps ...plan.ID) plan.ID {
		dur := readDur
		if write {
			dur = writeDur
		}
		id := it.Add(plan.Op{Kind: plan.NVMeStage, Label: label, Layer: layer,
			Queue: -1, Bytes: ioBytes, DurNS: dur, Write: write}, deps...)
		if write {
			spills = append(spills, id)
		}
		return id
	}
	pageIn := func(label plan.Label, layer int32, prev plan.ID) plan.ID {
		if len(spills) >= 2 {
			return stage(label, layer, false, prev, spills[len(spills)-2])
		}
		return stage(label, layer, false, prev)
	}

	embedFP := it.Add(plan.Op{Kind: plan.ComputeFP, Label: plan.LabelFPEmbed, Layer: -1, Queue: 0, DurNS: embed})

	fpRelease := make([]plan.ID, n)
	prev := embedFP
	var scratch [3]plan.ID // conditional dependency lists, copied by Add
	for i := 0; i < n; i++ {
		l := int32(i)
		var recycle []plan.ID
		if i >= 2 {
			recycle = fpRelease[i-2 : i-1]
		}
		acq := it.Add(plan.Op{Kind: plan.BufAcquire, Label: plan.LabelAcquire, Layer: l, Queue: -1, Bytes: volBytes},
			recycle...)
		fetchDeps := append(scratch[:0], acq)
		if nvme {
			fetchDeps = append(fetchDeps, pageIn(plan.LabelPageIn, l, prev))
		}
		up := it.Add(plan.Op{Kind: plan.Prefetch, Label: plan.LabelFetch, Layer: l, Queue: -1, Bytes: volBytes,
			DurNS: c2g}, fetchDeps...)
		// The refactoring copy is synchronous in ZeRO's engine: it gates
		// the kernel and waits for the previous one, so it lands on the
		// critical path of every visit (perFP in the closed form).
		ref := it.Add(plan.Op{Kind: plan.ComputeFP, Label: plan.LabelRefactor, Layer: l, Queue: 1,
			DurNS: zeroInfinityRefactorNS}, up, prev)
		k := it.Add(plan.Op{Kind: plan.ComputeFP, Label: plan.LabelFP, Layer: l, Queue: 0, DurNS: lt.FP}, ref)
		done := k
		if nvme {
			done = stage(plan.LabelPageOut, l, true, k)
		}
		fpRelease[i] = it.Add(plan.Op{Kind: plan.BufRelease, Label: plan.LabelRelease, Layer: l, Queue: -1}, done)
		prev = k
	}

	head := it.Add(plan.Op{Kind: plan.ComputeFP, Label: plan.LabelFPHead, Layer: -1, Queue: 0, DurNS: embed}, prev)

	bpRelease := make([]plan.ID, n)
	// The fused optimizer waits on every gradient offload, then the
	// backward embedding.
	optDeps := make([]plan.ID, 0, n+1)
	prev = head
	for i := n - 1; i >= 0; i-- {
		l := int32(i)
		// The first two backward acquires recycle the last two forward
		// slots; the explicit edges make the budget funding provable even
		// when those releases wait on NVMe page-outs. Later acquires
		// recycle the backward slot released two visits earlier.
		acqDeps := append(scratch[:0], fpRelease[i], prev)
		if i+2 <= n-1 {
			acqDeps = append(acqDeps, bpRelease[i+2])
		} else if i != n-2 && n >= 2 {
			acqDeps = append(acqDeps, fpRelease[n-2])
		}
		acq := it.Add(plan.Op{Kind: plan.BufAcquire, Label: plan.LabelBPAcquire, Layer: l, Queue: -1, Bytes: volBytes},
			acqDeps...)
		fetchDeps := append(scratch[:0], acq)
		if nvme {
			fetchDeps = append(fetchDeps, pageIn(plan.LabelBPPageIn, l, prev))
		}
		up := it.Add(plan.Op{Kind: plan.Prefetch, Label: plan.LabelBPFetch, Layer: l, Queue: -1, Bytes: volBytes,
			DurNS: c2g}, fetchDeps...)
		ref := it.Add(plan.Op{Kind: plan.ComputeBP, Label: plan.LabelBPRefactor, Layer: l, Queue: 1,
			DurNS: zeroInfinityRefactorNS}, up, prev)
		k := it.Add(plan.Op{Kind: plan.ComputeBP, Label: plan.LabelBP, Layer: l, Queue: 0, DurNS: lt.BP}, ref)
		grad := it.Add(plan.Op{Kind: plan.Offload, Label: plan.LabelGradOffload, Layer: l, Queue: -1, Bytes: volBytes,
			DurNS: g2c}, k)
		optDeps = append(optDeps, grad)
		done := grad
		if nvme {
			done = stage(plan.LabelBPPageOut, l, true, grad)
		}
		bpRelease[i] = it.Add(plan.Op{Kind: plan.BufRelease, Label: plan.LabelBPRelease, Layer: l, Queue: -1}, done)
		prev = k
	}

	optDeps = append(optDeps, it.Add(plan.Op{Kind: plan.ComputeBP, Label: plan.LabelBPEmbed, Layer: -1, Queue: 0,
		DurNS: embed}, prev))
	it.Add(plan.Op{Kind: plan.OptStep, Label: plan.LabelCPUAdamFused, Layer: -1, Queue: -1, DurNS: optDur}, optDeps...)
	return it
}

// interleavedOptPlan is Deep Optimizer States' schedule as a plan:
// parameters and gradients stay device-resident like ZeRO-Offload, but
// instead of one fused CPU Adam after the backward pass, each layer's
// update is split into an interleaved subgroup pair as soon as its
// gradients land on the host — a CPU share updating in place, and a
// GPU share whose moment chunk streams up, updates on a dedicated
// device stream (queue 1, off the backward kernels' queue) and streams
// back through a two-slot staging budget (OptSlots). The CPU-updated
// parameter share uploads behind its subgroup. Everything overlaps the
// remaining backward compute, so the exposed cost is one subgroup
// drain instead of ZeRO-Offload's serial optimizer phase — the
// method's entire advantage; kernels and transfer rates are identical.
func interleavedOptPlan(m perf.Model, pressure float64) *plan.Iteration {
	lt := m.Layer()
	n := m.Cfg.Layers
	params := m.Cfg.TotalParams() / int64(m.Cfg.ModelParallel)
	perLayer := params / int64(n)
	share := interleavedGPUShare
	xfer := func(bytes int64) sim.Time {
		return sim.Time(float64(bytes) / m.Plat.PCIe.BandwidthPerDir * 1e9 * pressure)
	}
	gradBytes := perLayer * modelcfg.BytesGrad
	momBytes := int64(share * float64(perLayer*modelcfg.BytesOptState))
	upBytes := int64((1 - share) * float64(perLayer*modelcfg.BytesParam))
	cpuDur := sim.Time((1 - share) * float64(perLayer*modelcfg.BytesAdamTraffic) / interleavedCPUAdamBW * 1e9 * pressure)
	gpuDur := sim.Time(share * float64(perLayer*modelcfg.BytesAdamTraffic) / m.Plat.GPU.MemBandwidth * 1e9)
	embed := m.EmbeddingTime()

	resident := allLayers(n)
	it := &plan.Iteration{
		Layers: n, Window: n, Queues: 2, OptSlots: 2,
		EntryResident: resident, ExitResident: resident,
	}
	it.Reserve(PlanSize(modelcfg.InterleavedOpt, n))
	prev := it.Add(plan.Op{Kind: plan.ComputeFP, Label: plan.LabelFPEmbed, Layer: -1, Queue: 0, DurNS: embed})
	for i := 0; i < n; i++ {
		prev = it.Add(plan.Op{Kind: plan.ComputeFP, Label: plan.LabelFP, Layer: int32(i), Queue: 0, DurNS: lt.FP}, prev)
	}
	prev = it.Add(plan.Op{Kind: plan.ComputeFP, Label: plan.LabelFPHead, Layer: -1, Queue: 0, DurNS: embed}, prev)

	momWB := make([]plan.ID, n)
	for i := range momWB {
		momWB[i] = -1
	}
	var scratch [2]plan.ID // conditional dependency lists, copied by Add
	for i := n - 1; i >= 0; i-- {
		l := int32(i)
		k := it.Add(plan.Op{Kind: plan.ComputeBP, Label: plan.LabelBP, Layer: l, Queue: 0, DurNS: lt.BP}, prev)
		grad := it.Add(plan.Op{Kind: plan.Offload, Label: plan.LabelGradOffload, Layer: l, Queue: -1,
			Bytes: gradBytes, DurNS: xfer(gradBytes)}, k)
		cpuOp := it.Add(plan.Op{Kind: plan.OptStep, Label: plan.LabelAdamCPU, Layer: l, Queue: -1, Frac: 1 - share,
			DurNS: cpuDur}, grad)
		// The moment fetch recycles the staging slot written back two
		// subgroups earlier (the validator's funding edge).
		fetchDeps := append(scratch[:0], grad)
		if i+2 < n && momWB[i+2] >= 0 {
			fetchDeps = append(fetchDeps, momWB[i+2])
		}
		fetch := it.Add(plan.Op{Kind: plan.Prefetch, Label: plan.LabelMomFetch, Layer: l, Queue: -1, Frac: share,
			Bytes: momBytes, DurNS: xfer(momBytes)}, fetchDeps...)
		gpuOp := it.Add(plan.Op{Kind: plan.OptStep, Label: plan.LabelAdamGPU, Layer: l, Queue: 1, GPU: true,
			Frac: share, DurNS: gpuDur}, fetch)
		momWB[i] = it.Add(plan.Op{Kind: plan.Offload, Label: plan.LabelMomWriteback, Layer: l, Queue: -1, Frac: share,
			Bytes: momBytes, DurNS: xfer(momBytes)}, gpuOp)
		paramUp := it.Add(plan.Op{Kind: plan.Prefetch, Label: plan.LabelParamUpload, Layer: l, Queue: -1,
			Bytes: upBytes, DurNS: xfer(upBytes)}, cpuOp)
		it.Add(plan.Op{Kind: plan.Join, Label: plan.LabelOptJoin, Layer: l, Queue: -1}, cpuOp, momWB[i], paramUp)
		prev = k
	}

	bpEmbed := it.Add(plan.Op{Kind: plan.ComputeBP, Label: plan.LabelBPEmbed, Layer: -1, Queue: 0, DurNS: embed}, prev)
	it.Add(plan.Op{Kind: plan.OptStep, Label: plan.LabelGPUAdamEmbed, GPU: true, Layer: -1, Queue: 0,
		DurNS: embedAdamGPU(m)}, bpEmbed)
	return it
}
