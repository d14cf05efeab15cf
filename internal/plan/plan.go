// Package plan defines a first-class intermediate representation for
// offload schedules: the prefetch/offload/compute/optimizer/staging
// operations of one training iteration, with explicit dependency
// edges, layer tags and deterministic op IDs. The planner (build.go)
// lowers a window decision and feature set into a plan; the validator
// (validate.go) checks the scheduling invariants on the IR before any
// simulation, and Prepare hands the executor the program it proved
// them on; the executor (exec.go) compiles a plan once into a CSR
// successor table, then walks it with dense per-op dependency counts,
// starting each op's simulated work through an environment interface
// once its dependencies have completed and releasing successors by op
// index when the environment reports it done. The executor alone knows
// the schedule's ordering rules: in-plan Deps, the FIFO order of each
// execution queue, and the cross-iteration facts, which it keeps in a
// State shared by a run's Execute calls. A dependency that crosses one
// Execute call into another names its producer as that call's Run and
// the op's index in it. The environment
// is core's, which runs STRONGHOLD's flop- and byte-costed plans and
// the baselines' explicit-duration plans alike. diff.go
// turns two plans for adjacent window sizes into the prefetch/offload
// patch the adaptive scheduler applies at iteration boundaries.
//
// A plan grows by about nine ops per windowed layer, so the IR is kept
// compact. An Op is 64 bytes with no pointers. Its name is a Label — an
// index into one closed table of prefix/suffix patterns (label.go) —
// rendered around its Layer only when printed. Its Deps and Ext are
// offset/length ranges into dependency arenas owned by the op
// container, a Graph, which Iteration and Patch embed; Graph.Add is the
// one way to append an op. Text and JSON render names and dependency
// lists as if they were stored.
package plan

import "stronghold/internal/sim"

// Kind discriminates the schedule operations.
type Kind uint8

const (
	// Prefetch copies a layer's state host→device (PCIe H2D).
	Prefetch Kind = iota + 1
	// Offload copies a layer's state device→host (PCIe D2H).
	Offload
	// ComputeFP is forward kernel work on one execution queue.
	ComputeFP
	// ComputeBP is backward kernel work on one execution queue.
	ComputeBP
	// OptStep applies one layer's (or the resident set's) Adam update,
	// on the CPU by default or on the GPU when Op.GPU is set.
	OptStep
	// NVMeStage moves a layer's state between the host staging ring and
	// secondary storage (Op.Write selects spill vs. restage).
	NVMeStage
	// BufAcquire claims a layer's device window buffers; it gates the
	// layer's prefetch and models the §III-E3 buffer discipline.
	BufAcquire
	// BufRelease returns a layer's device window buffers after its
	// offload completes, recycling them for a later acquire.
	BufRelease
	// Join is a zero-duration synchronization point: it completes when
	// all its dependencies have, letting one op (typically an Export)
	// wait on several branches — e.g. the CPU and GPU halves of a split
	// optimizer update both publishing one ExtOptDone. A join merges at
	// least two in-plan dependencies and carries no Ext.
	Join
)

// String returns the lower-case kind mnemonic used by the text format.
func (k Kind) String() string {
	switch k {
	case Prefetch:
		return "prefetch"
	case Offload:
		return "offload"
	case ComputeFP:
		return "compute-fp"
	case ComputeBP:
		return "compute-bp"
	case OptStep:
		return "opt-step"
	case NVMeStage:
		return "nvme-stage"
	case BufAcquire:
		return "buf-acquire"
	case BufRelease:
		return "buf-release"
	case Join:
		return "join"
	}
	return "invalid"
}

// ID identifies an op within its plan: ops are numbered 0..len(Ops)-1
// in emission order, which is also the canonical topological order the
// validator linearizes over (every dependency points at a smaller ID).
type ID int32

// ExtKind names a cross-iteration dependency or export: state produced
// by a previous iteration (or the warm-up) that this plan consumes, or
// state this plan publishes for the next iteration.
type ExtKind uint8

const (
	// ExtOptDone: the layer's parameters are updated and ready to
	// prefetch (the previous iteration's optimizer step, or the initial
	// weights before the first iteration).
	ExtOptDone ExtKind = iota + 1
	// ExtNVMeStaged: the layer's weights are present in the host
	// staging ring (NVMe tier only).
	ExtNVMeStaged
	// ExtResident: the layer is device-resident from the previous
	// iteration's backward pass (or a mid-run window grow whose
	// prefetch may still be in flight).
	ExtResident
)

// String returns the short mnemonic used by the text format.
func (k ExtKind) String() string {
	switch k {
	case ExtOptDone:
		return "opt"
	case ExtNVMeStaged:
		return "staged"
	case ExtResident:
		return "resident"
	}
	return "invalid"
}

// ExtDep is an external dependency: op issue waits for the named
// cross-iteration fact about a layer.
type ExtDep struct {
	Kind  ExtKind `json:"kind"`
	Layer int     `json:"layer"`
}

// Op is one schedule operation: 64 bytes and no pointers, so a plan of
// any depth is one flat array the garbage collector never scans. Fields
// beyond Kind are interpreted per kind: copies and stages carry Bytes,
// kernels carry Flops and a queue index, explicit-duration runs read
// DurNS. The op's name is rendered from Label and Layer (Name), and its
// dependency lists are ranges of its Graph's arenas (Graph.Deps,
// Graph.Ext).
type Op struct {
	ID ID
	// Layer tags the transformer block the op serves; -1 for
	// model-level ops (embedding, head, resident optimizer sweep).
	Layer int32
	Kind  Kind
	// Label is the op's name pattern (Name).
	Label Label
	// Export, when non-zero, publishes this op's completion as the
	// named cross-iteration fact for Op.Layer (e.g. an OptStep exports
	// ExtOptDone; the next iteration's prefetch of the layer consumes
	// it).
	Export ExtKind
	// Write selects the NVMeStage direction: true spills to storage,
	// false restages into the host ring.
	Write bool
	// GPU places an OptStep on the device queue instead of the CPU
	// optimizer pool.
	GPU bool
	// Queue is the execution-queue index for compute/optimizer ops —
	// a GPU stream in the STRONGHOLD engine, a FIFO resource in an
	// explicit-duration run. -1 for ops bound to a fixed resource (copies,
	// staging, buffer bookkeeping).
	Queue int16
	// Bytes is the payload of Prefetch/Offload/NVMeStage ops, and the
	// device bytes a BufAcquire pins until its matching BufRelease.
	Bytes int64
	// Flops is the kernel work of compute ops and GPU OptSteps.
	Flops float64
	// DurNS is an explicit duration for ops issued by time rather than
	// by work (CPU OptSteps, and every op of a baseline's plan).
	DurNS sim.Time
	// Frac, when non-zero, marks a fractional optimizer-placement op:
	// on an OptStep it is the share of the layer's optimizer update
	// this op performs (a layer's fractional OptSteps must sum to 1);
	// on a Prefetch/Offload it tags the op as a moment-chunk transfer
	// holding one of the plan's OptSlots staging buffers.
	Frac float64
	// Deps are in-plan dependencies; every entry must be a smaller ID.
	Deps Range
	// Ext are cross-iteration dependencies the executor resolves.
	Ext Range
}

// Range locates one op's dependency list in its Graph's arena.
type Range struct{ off, n uint32 }

// Len is the number of entries in the list.
func (r Range) Len() int { return int(r.n) }

// Graph is an op list in canonical order together with the arenas its
// ops' Deps and Ext ranges index. Add is the one way to append an op;
// SetDeps and SetExt replace an op's lists. Iteration and Patch embed a
// Graph; the zero value is empty.
type Graph struct {
	// Ops in emission order — the canonical topological order.
	Ops  []Op
	deps []ID
	ext  []ExtDep
}

// Size counts a plan's ops and the entries of its two dependency
// arenas: in-plan Deps and cross-iteration Ext.
type Size struct{ Ops, Deps, Ext int }

// Reserve makes room in g for exactly s more ops and arena entries, so
// a planner that knows its plan's size grows nothing as it appends.
func (g *Graph) Reserve(s Size) {
	g.Ops = append(make([]Op, 0, len(g.Ops)+s.Ops), g.Ops...)
	g.deps = append(make([]ID, 0, len(g.deps)+s.Deps), g.deps...)
	g.ext = append(make([]ExtDep, 0, len(g.ext)+s.Ext), g.ext...)
}

// Add appends op, numbered next, with in-plan dependencies deps, and
// returns its ID.
func (g *Graph) Add(op Op, deps ...ID) ID {
	op.ID = ID(len(g.Ops))
	op.Deps = g.addDeps(deps)
	g.Ops = append(g.Ops, op)
	return op.ID
}

// SetDeps replaces op id's in-plan dependencies.
//
//vet:ignore testonly the plan and baselines mutation tests rewire dependencies with it
func (g *Graph) SetDeps(id ID, deps ...ID) { g.Ops[id].Deps = g.addDeps(deps) }

// SetExt replaces op id's cross-iteration dependencies.
func (g *Graph) SetExt(id ID, ext ...ExtDep) {
	g.Ops[id].Ext = Range{uint32(len(g.ext)), uint32(len(ext))}
	g.ext = append(g.ext, ext...)
}

func (g *Graph) addDeps(deps []ID) Range {
	r := Range{uint32(len(g.deps)), uint32(len(deps))}
	g.deps = append(g.deps, deps...)
	return r
}

// Deps returns op's in-plan dependencies. The slice aliases the arena
// but has no spare capacity: appending to it copies.
func (g *Graph) Deps(op *Op) []ID {
	r := op.Deps
	return g.deps[r.off : r.off+r.n : r.off+r.n]
}

// Ext returns op's cross-iteration dependencies, like Deps.
func (g *Graph) Ext(op *Op) []ExtDep {
	r := op.Ext
	return g.ext[r.off : r.off+r.n : r.off+r.n]
}

// Iteration is one full training iteration's schedule.
type Iteration struct {
	// Layers is the model depth n; Window the working-set size m;
	// Queues the number of compute execution queues.
	Layers int `json:"layers"`
	Window int `json:"window"`
	Queues int `json:"queues"`
	// BudgetSlots bounds how many layers may hold device buffers at
	// once (the reserved pool holds BudgetSlots layer-sized slots);
	// BudgetBytes is the same ceiling in bytes. Zero disables the
	// respective check.
	BudgetSlots int   `json:"budget_slots,omitempty"`
	BudgetBytes int64 `json:"budget_bytes,omitempty"`
	// EntryResident lists the layers holding device buffers when the
	// iteration starts; ExitResident when it ends. The schedule must
	// transform one into the other (§III-E1's window invariant).
	EntryResident []int `json:"entry_resident"`
	ExitResident  []int `json:"exit_resident"`
	// NVMe records whether the plan stages layer state on secondary
	// storage (diffing uses it to carry staging dependencies into
	// patches).
	NVMe bool `json:"nvme,omitempty"`
	// RingSlots, when non-zero, bounds the host staging ring: at most
	// RingSlots layers may sit in the ring at once, each ring epoch
	// opened by a restage (NVMeStage Write=false) and closed by a spill
	// (NVMeStage Write=true). The validator proves the bound with the
	// same funding argument as the window budget.
	RingSlots int `json:"ring_slots,omitempty"`
	// OptSlots, when non-zero, bounds the device staging buffers for
	// fractional optimizer moment chunks: Frac-tagged Prefetches take a
	// slot, Frac-tagged Offloads return it.
	OptSlots int `json:"opt_slots,omitempty"`
	// Graph holds the ops; MarshalJSON renders them with their names
	// and dependency lists.
	Graph `json:"-"`
}
