package plan

import (
	"fmt"

	"stronghold/internal/sim"
)

// Spec is the planner input: the window decision, feature toggles and
// per-layer costs that determine one iteration's schedule. It is plain
// data — the engine derives it from its model and features, tests
// write it by hand.
type Spec struct {
	Layers int // model depth n
	Window int // working-set size m
	Queues int // concurrent compute queues (multi-stream workers)

	// NVMe stages layer state on secondary storage after each
	// optimizer step. Sync serializes copies with the next layer's
	// kernels (the pageable caching-allocator path, §III-E3 off).
	// SingleOpt serializes each layer's backward kernels behind the
	// previous layer's optimizer step (§III-E1 off).
	NVMe      bool
	Sync      bool
	SingleOpt bool

	// BudgetSlots is the layer-slot capacity of the device buffer pool
	// (window + spare, §III-E3); 0 defaults to Window+1. BufBytes is
	// the device bytes one resident layer pins.
	BudgetSlots int
	BufBytes    int64

	// WeightBytes moves on every prefetch; CheckpointBytes rides along
	// on FP offloads and BP prefetches; StateBytes (weights+grads)
	// moves on BP offloads.
	WeightBytes     int64
	CheckpointBytes int64
	StateBytes      int64

	// Per-queue kernel work. GradSyncFlops > 0 adds the multi-queue
	// gradient all-reduce after each layer's backward kernels.
	FwdFlops, BwdFlops, EmbedFlops float64
	GradSyncFlops                  float64
	// ResidentOptFlops is the fused on-GPU update of the resident
	// window and embedding/head.
	ResidentOptFlops float64
	// OptDurNS is one layer's CPU Adam duration (scaled per layer).
	OptDurNS sim.Time

	// OptGPUFrac, when in (0,1), splits each offloaded layer's
	// optimizer update: the 1−g share runs on the CPU pool as before,
	// the g share runs on the GPU against moment chunks round-tripped
	// over PCIe (the co-optimized placement, solver Decision). The two
	// halves join before publishing ExtOptDone. MomentBytes is the
	// full-layer moment payload the g share is cut from; GPUOptFlops
	// the kernel work of one full-layer GPU update.
	OptGPUFrac  float64
	MomentBytes int64
	GPUOptFlops float64

	// LayerScale, when non-nil (length = Layers), scales layer i's
	// compute and transfer volume (heterogeneous models, §III-B).
	LayerScale []float64
}

func (s Spec) scale(i int) float64 {
	if s.LayerScale == nil || i < 0 || i >= len(s.LayerScale) {
		return 1
	}
	return s.LayerScale[i]
}

func (s Spec) scaleBytes(i int, bytes int64) int64 {
	return int64(float64(bytes) * s.scale(i))
}

// Build lowers a spec into one iteration's schedule. The op order is
// the exact issue order of the executor — a topological order in which
// every dependency points backwards — and is deterministic: equal
// specs produce byte-identical plans.
func Build(s Spec) (*Iteration, error) {
	if s.Layers < 1 {
		return nil, fmt.Errorf("plan: model needs at least one layer, got %d", s.Layers)
	}
	if s.Window < 1 {
		return nil, fmt.Errorf("plan: window must be positive, got %d", s.Window)
	}
	if s.Queues < 1 {
		return nil, fmt.Errorf("plan: need at least one compute queue, got %d", s.Queues)
	}
	if s.LayerScale != nil && len(s.LayerScale) != s.Layers {
		return nil, fmt.Errorf("plan: LayerScale has %d entries for %d layers", len(s.LayerScale), s.Layers)
	}
	if s.OptGPUFrac < 0 || s.OptGPUFrac >= 1 {
		if s.OptGPUFrac != 0 {
			return nil, fmt.Errorf("plan: OptGPUFrac %g outside (0,1)", s.OptGPUFrac)
		}
	}
	n, m, k := s.Layers, s.Window, s.Queues
	budget := s.BudgetSlots
	if budget == 0 {
		budget = m + 1
	}

	it := &Iteration{
		Layers:      n,
		Window:      m,
		Queues:      k,
		BudgetSlots: budget,
		BudgetBytes: int64(budget) * s.BufBytes,
		NVMe:        s.NVMe,
	}
	if s.OptGPUFrac > 0 {
		// Two moment staging buffers: one layer's chunk updating on the
		// GPU while the next layer's chunk is in flight.
		it.OptSlots = 2
	}
	resident := make([]int, 0, 2*min(m, n))
	for i := 0; i < m && i < n; i++ {
		resident = append(resident, i)
	}
	it.EntryResident = resident[:len(resident):len(resident)]
	it.ExitResident = append(resident[len(resident):], resident...)

	it.Reserve(s.Size())
	var scratch [4]ID // conditional dependency lists, copied by Add

	// Per-layer op IDs, -1 where the layer has none. fpKernelOp and
	// bpKernelOp hold layer i's per-queue kernels at [i*k, (i+1)*k);
	// embedOp and headOp hold the model-level kernels, one per queue.
	ids := make([]ID, 7*n+2*n*k+2*k)
	prefetchOp := ids[0*n : 1*n] // -1 when the layer starts resident
	fpOffloadOp := ids[1*n : 2*n]
	fpReleaseOp := ids[2*n : 3*n]
	bpPrefetchOp := ids[3*n : 4*n]
	bpOffloadOp := ids[4*n : 5*n]
	bpReleaseOp := ids[5*n : 6*n]
	optOp := ids[6*n : 7*n]
	fpKernelOp := ids[7*n : 7*n+n*k]
	bpKernelOp := ids[7*n+n*k : 7*n+2*n*k]
	embedOp := ids[7*n+2*n*k : 7*n+2*n*k+k]
	headOp := ids[7*n+2*n*k+k:]
	for i := range ids[:7*n] {
		ids[i] = -1
	}
	var gradSyncOp, momWBOp []ID
	if s.GradSyncFlops > 0 {
		gradSyncOp = make([]ID, n)
	}
	if s.OptGPUFrac > 0 {
		momWBOp = make([]ID, n) // fractional placement: moment write-backs
		for i := range momWBOp {
			momWBOp[i] = -1
		}
	}
	// bpDoneOp is what layer i's gradient offload waits on: its
	// kernels, or the trailing all-reduce.
	bpDoneOp := func(i int) []ID {
		if gradSyncOp != nil {
			return gradSyncOp[i : i+1]
		}
		return bpKernelOp[i*k : (i+1)*k]
	}

	// ---- Forward pass ----------------------------------------------
	// The window holds layers 0..m-1 at entry; FP prefetches ahead of
	// the compute front and offloads every layer except the last m.
	for q := 0; q < k; q++ {
		embedOp[q] = it.Add(Op{Kind: ComputeFP, Label: LabelFPEmbed, Layer: -1, Queue: int16(q), Flops: s.EmbedFlops})
	}
	for i := 0; i < n; i++ {
		l := int32(i)
		// pre_forward(i): load the layer just outside the window
		// (Fig. 3b ①), claiming its buffers at issue. The prefetch
		// recycles the buffer freed by layer j-m-1's post-forward
		// offload; the first prefetch takes the spare slot.
		if j := i + m; j < n {
			d := scratch[:0]
			if j > m {
				d = append(d, fpReleaseOp[j-m-1])
			}
			acq := it.Add(Op{Kind: BufAcquire, Label: LabelAcquire, Layer: int32(j), Queue: -1, Bytes: s.BufBytes}, d...)
			if s.NVMe {
				it.SetExt(acq, ExtDep{Kind: ExtOptDone, Layer: j}, ExtDep{Kind: ExtNVMeStaged, Layer: j})
			} else {
				it.SetExt(acq, ExtDep{Kind: ExtOptDone, Layer: j})
			}
			prefetchOp[j] = it.Add(Op{Kind: Prefetch, Label: LabelPrefetch, Layer: int32(j), Queue: -1,
				Bytes: s.scaleBytes(j, s.WeightBytes)}, acq)
		}
		for q := 0; q < k; q++ {
			d := scratch[:0]
			if prefetchOp[i] >= 0 {
				d = append(d, prefetchOp[i])
			}
			if i == 0 {
				d = append(d, embedOp[q])
			}
			if s.Sync && i > 0 && fpOffloadOp[i-1] >= 0 {
				d = append(d, fpOffloadOp[i-1]) // allocator sync
			}
			fpKernelOp[i*k+q] = it.Add(Op{Kind: ComputeFP, Label: LabelFP, Layer: l, Queue: int16(q),
				Flops: s.FwdFlops * s.scale(i)}, d...)
			if prefetchOp[i] < 0 {
				it.SetExt(fpKernelOp[i*k+q], ExtDep{Kind: ExtResident, Layer: i})
			}
		}
		if i < n-m {
			// post_forward(i): the computed layer's parameters and its
			// activation checkpoint move back to the CPU (Fig. 3b ③);
			// its buffers recycle once the copy lands.
			fpOffloadOp[i] = it.Add(Op{Kind: Offload, Label: LabelFPOffload, Layer: l, Queue: -1,
				Bytes: s.scaleBytes(i, s.WeightBytes+s.CheckpointBytes)}, fpKernelOp[i*k:(i+1)*k]...)
			fpReleaseOp[i] = it.Add(Op{Kind: BufRelease, Label: LabelRelease, Layer: l, Queue: -1, Bytes: s.BufBytes},
				fpOffloadOp[i])
		}
	}

	for q := 0; q < k; q++ {
		headOp[q] = it.Add(Op{Kind: ComputeFP, Label: LabelFPHead, Layer: -1, Queue: int16(q), Flops: s.EmbedFlops},
			fpKernelOp[(n-1)*k:n*k]...)
	}

	// ---- Backward pass ---------------------------------------------
	// BP starts with layers n-m..n-1 resident, prefetches below the
	// window front and offloads every layer except the first m —
	// restoring the forward-entry invariant.
	for i := n - 1; i >= 0; i-- {
		l := int32(i)
		// pre_backward(i): restore the layer just outside the window in
		// the BP direction (Fig. 3c ①) — weights plus the checkpoint
		// this iteration's FP offload produced. Its buffers come from
		// layer j+m+1's BP release; the first BP prefetch takes the
		// spare slot freed by the final FP offload.
		if j := i - m; j >= 0 {
			d := append(scratch[:0], fpReleaseOp[j])
			if j+m+1 <= n-1 {
				d = append(d, bpReleaseOp[j+m+1])
			}
			acq := it.Add(Op{Kind: BufAcquire, Label: LabelAcquire, Layer: int32(j), Queue: -1, Bytes: s.BufBytes}, d...)
			if s.NVMe {
				it.SetExt(acq, ExtDep{Kind: ExtNVMeStaged, Layer: j})
			}
			bpPrefetchOp[j] = it.Add(Op{Kind: Prefetch, Label: LabelBPPrefetch, Layer: int32(j), Queue: -1,
				Bytes: s.scaleBytes(j, s.WeightBytes+s.CheckpointBytes)}, acq)
		}
		for q := 0; q < k; q++ {
			d := scratch[:0]
			if bpPrefetchOp[i] >= 0 {
				d = append(d, bpPrefetchOp[i])
			}
			if i == n-1 {
				d = append(d, headOp[q])
			}
			if s.Sync && i < n-1 && bpOffloadOp[i+1] >= 0 {
				d = append(d, bpOffloadOp[i+1])
			}
			if s.SingleOpt && i+1 < n && optOp[i+1] >= 0 {
				// Without concurrent optimizers each layer's update runs
				// synchronously between BP steps (§III-E1 off).
				d = append(d, optOp[i+1])
			}
			bpKernelOp[i*k+q] = it.Add(Op{Kind: ComputeBP, Label: LabelBP, Layer: l, Queue: int16(q),
				Flops: s.BwdFlops * s.scale(i)}, d...)
		}
		if gradSyncOp != nil {
			// Multi-queue gradient all-reduce over HBM before the
			// layer's gradient offload (§IV-A).
			gradSyncOp[i] = it.Add(Op{Kind: ComputeBP, Label: LabelGradAllreduce, Layer: l, Queue: 0, Flops: s.GradSyncFlops},
				bpKernelOp[i*k:(i+1)*k]...)
		}

		if i >= m {
			// pre_backward ②③: offload weights+grads, update on the
			// CPU, stage through NVMe when configured, then recycle the
			// buffers. The release is emitted after the optimizer
			// chain: the executor registers completion callbacks in op
			// order, and this order reproduces the engine's exact
			// issue sequence.
			bpOffloadOp[i] = it.Add(Op{Kind: Offload, Label: LabelBPOffload, Layer: l, Queue: -1,
				Bytes: s.scaleBytes(i, s.StateBytes)}, bpDoneOp(i)...)
			if g := s.OptGPUFrac; g > 0 {
				// Split update (co-optimized placement): the 1−g share runs
				// on the CPU pool, the g share round-trips its moment chunk
				// over PCIe and updates on the GPU. The chunk's staging
				// buffer recycles from the layer updated two steps earlier
				// (OptSlots = 2), and both halves join before publishing
				// ExtOptDone.
				cpuOp := it.Add(Op{Kind: OptStep, Label: LabelAdamCPU, Layer: l, Queue: -1, Frac: 1 - g,
					DurNS: sim.Time(float64(s.OptDurNS) * s.scale(i) * (1 - g))}, bpOffloadOp[i])
				momBytes := int64(g * float64(s.scaleBytes(i, s.MomentBytes)))
				d := append(scratch[:0], bpOffloadOp[i])
				if i+2 < n && momWBOp[i+2] >= 0 {
					d = append(d, momWBOp[i+2])
				}
				fetch := it.Add(Op{Kind: Prefetch, Label: LabelMomFetch, Layer: l, Queue: -1, Frac: g, Bytes: momBytes}, d...)
				gpuOp := it.Add(Op{Kind: OptStep, Label: LabelAdamGPU, Layer: l, Queue: 0, GPU: true,
					Frac: g, Flops: g * s.GPUOptFlops * s.scale(i)}, fetch)
				momWBOp[i] = it.Add(Op{Kind: Offload, Label: LabelMomWriteback, Layer: l, Queue: -1, Frac: g, Bytes: momBytes},
					gpuOp)
				optOp[i] = it.Add(Op{Kind: Join, Label: LabelOptJoin, Layer: l, Queue: -1, Export: ExtOptDone},
					cpuOp, momWBOp[i])
			} else {
				optOp[i] = it.Add(Op{Kind: OptStep, Label: LabelAdam, Layer: l, Queue: -1,
					DurNS: sim.Time(float64(s.OptDurNS) * s.scale(i)), Export: ExtOptDone}, bpOffloadOp[i])
			}
			if s.NVMe {
				wr := it.Add(Op{Kind: NVMeStage, Label: LabelNVMeSpill, Layer: l, Queue: -1, Write: true, Bytes: s.WeightBytes},
					optOp[i])
				it.Add(Op{Kind: NVMeStage, Label: LabelNVMeRestage, Layer: l, Queue: -1, Bytes: s.WeightBytes,
					Export: ExtNVMeStaged}, wr)
			}
			bpReleaseOp[i] = it.Add(Op{Kind: BufRelease, Label: LabelRelease, Layer: l, Queue: -1, Bytes: s.BufBytes},
				bpOffloadOp[i])
		}
	}

	// GPU-side updates: resident window layers plus embedding/head.
	it.Add(Op{Kind: OptStep, Label: LabelGPUAdamResident, Layer: -1, Queue: 0, GPU: true, Flops: s.ResidentOptFlops},
		bpDoneOp(0)...)
	return it, nil
}

// Size is the exact size of the plan Build emits for s; Build reserves
// it up front (Graph.Reserve), so a plan of any depth costs a handful
// of allocations.
func (s Spec) Size() Size {
	n, k := s.Layers, s.Queues
	w := max(0, n-s.Window)
	sync, single, gs, nvme := b2i(s.Sync), b2i(s.SingleOpt), b2i(s.GradSyncFlops > 0), b2i(s.NVMe)

	// Ops: per queue the embedding, head and every layer's forward and
	// backward kernels, the final resident update, an all-reduce per
	// layer when enabled, and for each of the n−m windowed layers its
	// two acquire/prefetch pairs, two offloads, two releases, its
	// optimizer step (five ops when split across CPU and GPU) and, with
	// NVMe, a spill and a restage.
	perWindowed := 9 + 2*nvme
	if s.OptGPUFrac > 0 {
		perWindowed += 4
	}
	ops := 2*k + 2*n*k + 1 + w*perWindowed + gs*n

	// In-plan dependency edges, summed over every op's Deps.
	done := k // what a layer's gradient offload waits on
	if gs == 1 {
		done = 1
	}
	// Forward: acquires recycle from the second windowed layer on, one
	// edge per prefetch, kernels gated by prefetch (windowed layers),
	// the embedding (layer 0) and under Sync the previous offload;
	// offloads join the layer's kernels; releases follow offloads;
	// heads join the last layer's kernels.
	fwd := max(0, w-1) + w + k*(w+1+sync*min(w, n-1)) + w*k + w + k*k
	// Backward: acquires follow the forward release and, past the
	// first, the previous BP release; kernels gated by the BP prefetch,
	// the head (last layer), Sync offloads and SingleOpt steps; the
	// all-reduce joins the kernels; offloads, optimizer chains, NVMe
	// staging and releases; the final resident update.
	bwd := w + max(0, w-1) + w + k*(w+1+sync*w+single*w) + gs*n*k + w*done
	if s.OptGPUFrac > 0 {
		bwd += 6*w + max(0, w-2)
	} else {
		bwd += w
	}
	bwd += 2*w*nvme + w + done

	// Cross-iteration dependencies: each forward acquire's update fact
	// (and staging fact with NVMe), the residency fact of every
	// entry-resident layer's forward kernels, and with NVMe each
	// backward acquire's staging fact.
	ext := w*(1+nvme) + min(s.Window, n)*k + w*nvme
	return Size{Ops: ops, Deps: fwd + bwd, Ext: ext}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
