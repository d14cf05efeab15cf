package plan

import (
	"strings"
	"testing"
)

func planForWindow(t *testing.T, window int) *Iteration {
	t.Helper()
	s := baseSpec()
	s.Window = window
	s.BudgetSlots = 0 // re-derive window+1
	return mustBuild(t, s)
}

func TestDiffGrow(t *testing.T) {
	a, b := planForWindow(t, 2), planForWindow(t, 4)
	p, err := Diff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Grow) != 2 || p.Grow[0] != 2 || p.Grow[1] != 3 {
		t.Fatalf("grow layers %v, want [2 3]", p.Grow)
	}
	if len(p.Shrink) != 0 {
		t.Fatalf("unexpected shrink set %v", p.Shrink)
	}
	if len(p.Ops) != 4 {
		t.Fatalf("got %d patch ops, want acquire+prefetch per grown layer", len(p.Ops))
	}
	for _, l := range p.Grow {
		var acq, pf *Op
		for i := range p.Ops {
			if int(p.Ops[i].Layer) != l {
				continue
			}
			switch p.Ops[i].Kind {
			case BufAcquire:
				acq = &p.Ops[i]
			case Prefetch:
				pf = &p.Ops[i]
			}
		}
		if acq == nil || pf == nil {
			t.Fatalf("layer %d: patch missing acquire/prefetch pair", l)
		}
		// The grow prefetch publishes residency for the next
		// iteration's kernels; its gating is lifted from plan a, where
		// the layer was windowed.
		if pf.Export != ExtResident {
			t.Errorf("layer %d: grow prefetch must export residency", l)
		}
		if ext := p.Ext(acq); len(ext) == 0 || ext[0].Kind != ExtOptDone {
			t.Errorf("layer %d: grow acquire must wait on the layer's optimizer", l)
		}
	}
}

func TestDiffShrink(t *testing.T) {
	a, b := planForWindow(t, 4), planForWindow(t, 2)
	p, err := Diff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Shrink) != 2 || p.Shrink[0] != 2 || p.Shrink[1] != 3 {
		t.Fatalf("shrink layers %v, want [2 3]", p.Shrink)
	}
	if len(p.Ops) != 4 {
		t.Fatalf("got %d patch ops, want offload+release per evicted layer", len(p.Ops))
	}
	for i := range p.Ops {
		op := &p.Ops[i]
		if op.Kind == Offload && op.Export != ExtOptDone {
			t.Errorf("layer %d: eviction offload must republish the layer as host-updated", op.Layer)
		}
	}
	if txt := PatchText(p); !strings.Contains(txt, "shrink offload L2") {
		t.Errorf("patch text missing eviction op:\n%s", txt)
	}
}

func TestDiffSameWindowIsEmpty(t *testing.T) {
	a, b := planForWindow(t, 3), planForWindow(t, 3)
	p, err := Diff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Ops) != 0 || len(p.Grow) != 0 || len(p.Shrink) != 0 {
		t.Fatalf("diff of equal windows is not empty: %+v", p)
	}
}

func TestDiffRejectsDifferentModels(t *testing.T) {
	a := planForWindow(t, 2)
	s := baseSpec()
	s.Layers = 9
	s.LayerScale = nil
	b := mustBuild(t, s)
	if _, err := Diff(a, b); err == nil {
		t.Fatal("diff across models must fail")
	}
}
