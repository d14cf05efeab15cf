package plan

import (
	"fmt"

	"stronghold/internal/sim"
)

// Patch is the schedule delta between two plans for the same model at
// different window sizes — what the adaptive scheduler applies at an
// iteration boundary instead of rebuilding the resident set from
// scratch. Growing the window prefetches the newly resident layers;
// shrinking offloads the evicted ones (their parameters were just
// updated) back to the host and recycles their buffers. Patch ops are
// a self-contained mini-plan: IDs are local, dependencies stay within
// the patch, and cross-iteration facts flow through Ext/Export exactly
// as in a full plan.
type Patch struct {
	// From and To are the window sizes the patch transforms between.
	From, To int
	// Grow lists the layers being made resident; Shrink the layers
	// being evicted. At most one of the two is non-empty.
	Grow, Shrink []int
	// Graph holds the ops in canonical order, ready for Apply.
	Graph
}

// Diff computes the patch that moves a schedule from plan a's window
// to plan b's. Both plans must describe the same model (layer count);
// the op payloads (prefetch bytes, external dependencies) are lifted
// from whichever plan schedules the layer's transfer, so the patch
// inherits LayerScale- and NVMe-awareness without recomputing either.
func Diff(a, b *Iteration) (*Patch, error) {
	if a.Layers != b.Layers {
		return nil, fmt.Errorf("plan: cannot diff plans for different models (%d vs %d layers)", a.Layers, b.Layers)
	}
	p := &Patch{From: a.Window, To: b.Window}
	inA := residentSet(a.EntryResident)
	inB := residentSet(b.EntryResident)
	switch {
	case b.Window > a.Window:
		// Newly resident layers appear in b's entry set only. Their
		// acquire gating and prefetch payload are scheduled ops in plan
		// a (where they were windowed), so copy them from there.
		for _, j := range b.EntryResident {
			if inA[j] {
				continue
			}
			p.Grow = append(p.Grow, j)
			acq, pf := layerPrefetch(a, j)
			if acq == nil || pf == nil {
				return nil, fmt.Errorf("plan: no prefetch schedule for grown layer %d in the %d-window plan", j, a.Window)
			}
			acquire := p.Add(Op{Kind: BufAcquire, Label: LabelGrowAcquire, Layer: int32(j), Queue: -1, Bytes: acq.Bytes})
			p.SetExt(acquire, a.Ext(acq)...)
			p.Add(Op{Kind: Prefetch, Label: LabelGrowPrefetch, Layer: int32(j), Queue: -1, Bytes: pf.Bytes,
				Export: ExtResident}, acquire)
		}
	case b.Window < a.Window:
		// Evicted layers are windowed in plan b; its forward prefetch
		// bytes are exactly the parameter payload the eviction offload
		// must move back.
		for _, j := range a.EntryResident {
			if inB[j] {
				continue
			}
			p.Shrink = append(p.Shrink, j)
			_, pf := layerPrefetch(b, j)
			if pf == nil {
				return nil, fmt.Errorf("plan: no prefetch schedule for evicted layer %d in the %d-window plan", j, b.Window)
			}
			offload := p.Add(Op{Kind: Offload, Label: LabelShrinkOffload, Layer: int32(j), Queue: -1, Bytes: pf.Bytes,
				Export: ExtOptDone})
			p.Add(Op{Kind: BufRelease, Label: LabelShrinkRelease, Layer: int32(j), Queue: -1}, offload)
		}
	}
	return p, nil
}

// Apply compiles the patch ops and walks them on eng against st,
// exactly like Execute walks an iteration plan, and returns the run.
func (p *Patch) Apply(eng *sim.Engine, st *State, env Env) *Run {
	return Execute(Compile(&p.Graph), eng, st, env)
}

func residentSet(layers []int) map[int]bool {
	s := make(map[int]bool, len(layers))
	for _, l := range layers {
		s[l] = true
	}
	return s
}

// layerPrefetch finds layer j's forward-pass acquire and prefetch ops
// in it (the first of each in canonical order).
func layerPrefetch(it *Iteration, j int) (acq, pf *Op) {
	for i := range it.Ops {
		op := &it.Ops[i]
		if int(op.Layer) != j {
			continue
		}
		switch op.Kind {
		case BufAcquire:
			if acq == nil {
				acq = op
			}
		case Prefetch:
			if pf == nil {
				pf = op
			}
		}
		if acq != nil && pf != nil {
			return acq, pf
		}
	}
	return acq, pf
}
