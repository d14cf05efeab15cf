package plan

import "strconv"

// Label is an op's name pattern: a prefix and a suffix around the op's
// layer. Every planner — Build, the baseline planners, Diff — names its
// ops from this one closed table, so a name costs one byte in the op
// and is rendered only when printed.
type Label uint8

// The labels, grouped by the planner that introduced them. The zero
// Label has an empty pattern: an unlabeled op is named by its layer.
const (
	// Build's STRONGHOLD schedule.
	LabelFPEmbed Label = iota + 1
	LabelFPHead
	LabelAcquire
	LabelPrefetch
	LabelFP
	LabelFPOffload
	LabelRelease
	LabelBPPrefetch
	LabelBP
	LabelGradAllreduce
	LabelBPOffload
	LabelAdam
	LabelAdamCPU
	LabelAdamGPU
	LabelMomFetch
	LabelMomWriteback
	LabelOptJoin
	LabelNVMeSpill
	LabelNVMeRestage
	LabelGPUAdamResident

	// The baseline planners.
	LabelBPEmbed
	LabelGPUAdam
	LabelGPUAdamEmbed
	LabelGPUAdamSweep
	LabelCPUAdamFused
	LabelVisit
	LabelUpload
	LabelBPAcquire
	LabelBPVisit
	LabelBPUpload
	LabelGradOffload
	LabelBPRelease
	LabelParamUpload
	LabelFetch
	LabelRefactor
	LabelPageIn
	LabelPageOut
	LabelBPFetch
	LabelBPRefactor
	LabelBPPageIn
	LabelBPPageOut

	// Diff's window patches.
	LabelGrowAcquire
	LabelGrowPrefetch
	LabelShrinkOffload
	LabelShrinkRelease

	numLabels
)

// labels holds each label's prefix and suffix.
var labels = [numLabels][2]string{
	LabelFPEmbed:         {"fp embed", ""},
	LabelFPHead:          {"fp head+loss", ""},
	LabelAcquire:         {"acquire ", ""},
	LabelPrefetch:        {"prefetch ", ""},
	LabelFP:              {"fp ", ""},
	LabelFPOffload:       {"fp offload ", ""},
	LabelRelease:         {"release ", ""},
	LabelBPPrefetch:      {"bp prefetch ", ""},
	LabelBP:              {"bp ", ""},
	LabelGradAllreduce:   {"grad allreduce ", ""},
	LabelBPOffload:       {"bp offload ", ""},
	LabelAdam:            {"adam ", ""},
	LabelAdamCPU:         {"adam ", " cpu"},
	LabelAdamGPU:         {"adam ", " gpu"},
	LabelMomFetch:        {"mom fetch ", ""},
	LabelMomWriteback:    {"mom writeback ", ""},
	LabelOptJoin:         {"opt join ", ""},
	LabelNVMeSpill:       {"nvme spill ", ""},
	LabelNVMeRestage:     {"nvme restage ", ""},
	LabelGPUAdamResident: {"gpu adam resident", ""},

	LabelBPEmbed:      {"bp embed", ""},
	LabelGPUAdam:      {"gpu adam ", ""},
	LabelGPUAdamEmbed: {"gpu adam embed", ""},
	LabelGPUAdamSweep: {"gpu adam sweep", ""},
	LabelCPUAdamFused: {"cpu adam fused", ""},
	LabelVisit:        {"visit ", ""},
	LabelUpload:       {"upload ", ""},
	LabelBPAcquire:    {"bp acquire ", ""},
	LabelBPVisit:      {"bp visit ", ""},
	LabelBPUpload:     {"bp upload ", ""},
	LabelGradOffload:  {"grad offload ", ""},
	LabelBPRelease:    {"bp release ", ""},
	LabelParamUpload:  {"param upload ", ""},
	LabelFetch:        {"fetch ", ""},
	LabelRefactor:     {"refactor ", ""},
	LabelPageIn:       {"page-in ", ""},
	LabelPageOut:      {"page-out ", ""},
	LabelBPFetch:      {"bp fetch ", ""},
	LabelBPRefactor:   {"bp refactor ", ""},
	LabelBPPageIn:     {"bp page-in ", ""},
	LabelBPPageOut:    {"bp page-out ", ""},

	LabelGrowAcquire:   {"grow acquire ", ""},
	LabelGrowPrefetch:  {"grow prefetch ", ""},
	LabelShrinkOffload: {"shrink offload ", ""},
	LabelShrinkRelease: {"shrink release ", ""},
}

// Name renders the op's name: its label's prefix, then L<layer> for a
// layer-tagged op, then the suffix — "fp L3", "adam L7 cpu", and
// "fp embed" for a model-level op.
func (op *Op) Name() string {
	var buf [32]byte
	return string(op.AppendName(buf[:0]))
}

// AppendName appends the op's name to b, so many names can share one
// buffer.
func (op *Op) AppendName(b []byte) []byte {
	if op.Label >= numLabels {
		return append(b, "invalid"...)
	}
	l := &labels[op.Label]
	b = append(b, l[0]...)
	if op.Layer >= 0 {
		b = append(b, 'L')
		b = strconv.AppendInt(b, int64(op.Layer), 10)
	}
	return append(b, l[1]...)
}
