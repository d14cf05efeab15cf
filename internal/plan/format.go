package plan

import (
	"encoding/json"
	"fmt"
	"strings"

	"stronghold/internal/sim"
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
	it.writeOps(&b)
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
	p.writeOps(&b)
	return b.String()
}

// writeOps writes one line per op.
func (g *Graph) writeOps(b *strings.Builder) {
	for i := range g.Ops {
		g.writeOp(b, &g.Ops[i])
		b.WriteByte('\n')
	}
}

func (g *Graph) writeOp(b *strings.Builder, op *Op) {
	fmt.Fprintf(b, "%4d %-11s %-24q", op.ID, op.Kind, op.Name())
	if op.Layer >= 0 {
		fmt.Fprintf(b, " L%-3d", op.Layer)
	} else {
		b.WriteString(" -   ")
	}
	if op.Queue >= 0 {
		fmt.Fprintf(b, " q%d", op.Queue)
	}
	if op.Bytes > 0 {
		fmt.Fprintf(b, " bytes=%d", op.Bytes)
	}
	if op.Flops > 0 {
		fmt.Fprintf(b, " flops=%g", op.Flops)
	}
	if op.DurNS > 0 {
		fmt.Fprintf(b, " dur=%dns", int64(op.DurNS))
	}
	if op.Write {
		b.WriteString(" write")
	}
	if op.GPU {
		b.WriteString(" gpu")
	}
	if op.Frac != 0 {
		fmt.Fprintf(b, " frac=%g", op.Frac)
	}
	if op.Deps.Len() > 0 {
		fmt.Fprintf(b, " deps=%v", g.Deps(op))
	}
	if op.Ext.Len() > 0 {
		b.WriteString(" ext=[")
		for i, x := range g.Ext(op) {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(b, "%s:L%d", x.Kind, x.Layer)
		}
		b.WriteByte(']')
	}
	if op.Export != 0 {
		fmt.Fprintf(b, " export=%s", op.Export)
	}
}

// JSON renders the plan as indented JSON with a stable field order.
func JSON(it *Iteration) ([]byte, error) {
	return json.MarshalIndent(it, "", "  ")
}

// jsonOp is an op as JSON renders it: named, with its dependency lists
// spelled out.
type jsonOp struct {
	ID     ID       `json:"id"`
	Kind   Kind     `json:"kind"`
	Name   string   `json:"name"`
	Layer  int32    `json:"layer"`
	Queue  int16    `json:"queue"`
	Bytes  int64    `json:"bytes,omitempty"`
	Flops  float64  `json:"flops,omitempty"`
	DurNS  sim.Time `json:"dur_ns,omitempty"`
	Write  bool     `json:"write,omitempty"`
	GPU    bool     `json:"gpu,omitempty"`
	Frac   float64  `json:"frac,omitempty"`
	Deps   []ID     `json:"deps,omitempty"`
	Ext    []ExtDep `json:"ext,omitempty"`
	Export ExtKind  `json:"export,omitempty"`
}

func (g *Graph) jsonOps() []jsonOp {
	out := make([]jsonOp, len(g.Ops))
	for i := range g.Ops {
		op := &g.Ops[i]
		out[i] = jsonOp{op.ID, op.Kind, op.Name(), op.Layer, op.Queue, op.Bytes, op.Flops, op.DurNS,
			op.Write, op.GPU, op.Frac, g.Deps(op), g.Ext(op), op.Export}
	}
	return out
}

// MarshalJSON renders the plan's fields, then its ops.
func (it *Iteration) MarshalJSON() ([]byte, error) {
	type fields Iteration // without this method
	return json.Marshal(struct {
		*fields
		Ops []jsonOp `json:"ops"`
	}{(*fields)(it), it.jsonOps()})
}
