package plan

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Text renders the plan in a deterministic line-oriented format: a
// header, the resident sets, then one line per op in canonical order.
// Two builds of the same Spec produce identical text, which is what
// the golden fixtures compare.
func Text(it *Iteration) string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan layers=%d window=%d queues=%d budget=%d slots", it.Layers, it.Window, it.Queues, it.BudgetSlots)
	if it.BudgetBytes > 0 {
		fmt.Fprintf(&b, " budget_bytes=%d", it.BudgetBytes)
	}
	if it.NVMe {
		b.WriteString(" nvme")
	}
	if it.RingSlots > 0 {
		fmt.Fprintf(&b, " ring=%d", it.RingSlots)
	}
	if it.OptSlots > 0 {
		fmt.Fprintf(&b, " opt_slots=%d", it.OptSlots)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "entry=%v exit=%v\n", it.EntryResident, it.ExitResident)
	for i := range it.Ops {
		b.WriteString(opLine(&it.Ops[i]))
		b.WriteByte('\n')
	}
	return b.String()
}

// PatchText renders a patch in the same line format as Text.
func PatchText(p *Patch) string {
	var b strings.Builder
	fmt.Fprintf(&b, "patch window %d->%d", p.From, p.To)
	if len(p.Grow) > 0 {
		fmt.Fprintf(&b, " grow=%v", p.Grow)
	}
	if len(p.Shrink) > 0 {
		fmt.Fprintf(&b, " shrink=%v", p.Shrink)
	}
	b.WriteByte('\n')
	for i := range p.Ops {
		b.WriteString(opLine(&p.Ops[i]))
		b.WriteByte('\n')
	}
	return b.String()
}

func opLine(op *Op) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%4d %-11s %-24q", op.ID, op.Kind, op.Name)
	if op.Layer >= 0 {
		fmt.Fprintf(&b, " L%-3d", op.Layer)
	} else {
		b.WriteString(" -   ")
	}
	if op.Queue >= 0 {
		fmt.Fprintf(&b, " q%d", op.Queue)
	}
	if op.Bytes > 0 {
		fmt.Fprintf(&b, " bytes=%d", op.Bytes)
	}
	if op.Flops > 0 {
		fmt.Fprintf(&b, " flops=%g", op.Flops)
	}
	if op.DurNS > 0 {
		fmt.Fprintf(&b, " dur=%dns", int64(op.DurNS))
	}
	if op.Write {
		b.WriteString(" write")
	}
	if op.GPU {
		b.WriteString(" gpu")
	}
	if op.Frac != 0 {
		fmt.Fprintf(&b, " frac=%g", op.Frac)
	}
	if len(op.Deps) > 0 {
		fmt.Fprintf(&b, " deps=%v", op.Deps)
	}
	if len(op.Ext) > 0 {
		b.WriteString(" ext=[")
		for i, x := range op.Ext {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%s:L%d", x.Kind, x.Layer)
		}
		b.WriteByte(']')
	}
	if op.Export != 0 {
		fmt.Fprintf(&b, " export=%s", op.Export)
	}
	return b.String()
}

// JSON renders the plan as indented JSON with a stable field order.
func JSON(it *Iteration) ([]byte, error) {
	return json.MarshalIndent(it, "", "  ")
}
