package plan

import (
	"fmt"
	"slices"
	"strings"
)

// Validate checks a plan's scheduling invariants on the IR, before any
// simulation:
//
//  1. well-formed dependency structure: sequential IDs, every edge
//     pointing at an earlier op (which also excludes cycles — the op
//     list is the canonical topological order the executor issues in);
//  2. buffer discipline: every acquire has a matching release, every
//     release closes an epoch opened by an acquire (or by entry
//     residency), and the plan ends holding exactly the declared exit
//     set;
//  3. residency before use: every layer-tagged compute happens-after
//     the acquire that made the layer resident (entry-resident layers
//     are exempt), through explicit edges or same-queue FIFO order;
//  4. window ceiling: under every admissible event timing the number
//     of layers holding device buffers stays within the slot budget;
//  5. NVMe ring discipline (RingSlots > 0): restages open ring epochs,
//     spills close them, prefetches only read staged layers, and the
//     ring occupancy stays within RingSlots under every timing;
//  6. fractional optimizer placement (Frac-tagged ops): each layer's
//     fractional OptSteps partition the update (fractions sum to 1,
//     no mixing with whole-layer steps), and Frac-tagged moment-chunk
//     transfers stay within the OptSlots staging budget.
//
// A nil error means the executor cannot hit the engine's
// buffer-invariant error on this plan. Violations are aggregated so a
// broken plan reports every problem at once. Validate is Prepare
// without the program.
func Validate(it *Iteration) error {
	_, err := Prepare(it)
	return err
}

// Prepare checks it as Validate does and returns the program Compile
// lowers it to, or nil and the violations. It lowers the plan between
// the structure check and the invariant checks, which read each op's
// queue predecessor from the program: the FIFO edges the proof follows
// are the ones the executor waits on.
func Prepare(it *Iteration) (*Compiled, error) {
	v := &validator{it: it}
	v.checkStructure()
	if len(v.errs) == 0 {
		v.c, v.seen = Compile(&it.Graph), make([]uint32, len(it.Ops))
		v.checkEpochs()
		v.checkNVMeRing()
		v.checkFrac()
	}
	if len(v.errs) > 0 {
		return nil, fmt.Errorf("plan: %d invariant violation(s):\n  %s", len(v.errs), strings.Join(v.errs, "\n  "))
	}
	return v.c, nil
}

type validator struct {
	it   *Iteration
	errs []string
	// c is the plan's program; c.info[i].prev is op i's predecessor on
	// its execution queue (-1 for the first op on a queue and for ops
	// off the queues).
	c *Compiled
	// seen marks the ops the current happensBefore search has pushed:
	// seen[i] == stamp. Bumping stamp clears every mark at once, so
	// queries share one array and one stack.
	seen  []uint32
	stamp uint32
	stack []ID
}

func (v *validator) failf(op *Op, format string, args ...any) {
	prefix := ""
	if op != nil {
		prefix = fmt.Sprintf("op %d (%s %q): ", op.ID, op.Kind, op.Name())
	}
	v.errs = append(v.errs, prefix+fmt.Sprintf(format, args...))
}

// checkStructure validates IDs, edge direction (no cycles), queue and
// layer ranges, the resident sets, and external-dependency sanity. The
// later checks index per-layer tables by the layers it bounds.
func (v *validator) checkStructure() {
	it := v.it
	if it.Layers < 0 {
		v.errs = append(v.errs, fmt.Sprintf("negative layer count %d", it.Layers))
		return
	}
	entry := make([]bool, it.Layers)
	for k, set := range [][]int{it.EntryResident, it.ExitResident} {
		for _, l := range set {
			if l < 0 || l >= it.Layers {
				v.errs = append(v.errs, fmt.Sprintf("%s-resident layer %d outside [0,%d)", [...]string{"entry", "exit"}[k], l, it.Layers))
			} else if k == 0 {
				entry[l] = true
			}
		}
	}
	for i := range it.Ops {
		op := &it.Ops[i]
		if op.ID != ID(i) {
			v.failf(op, "ID out of sequence at position %d", i)
			return // later checks index by ID
		}
		for _, d := range it.Deps(op) {
			if d < 0 || int(d) >= len(it.Ops) {
				v.failf(op, "dependency %d outside the plan", d)
			} else if d >= op.ID {
				v.failf(op, "dependency %d does not precede it: dependency cycle or non-topological op order", d)
			}
		}
		// Model-level work (embedding, head, the resident update, a
		// join) may carry layer -1; what moves or holds a layer's state
		// names one, and so does a published fact, which the executor
		// keeps per layer.
		minLayer := int32(-1)
		switch op.Kind {
		case ComputeFP, ComputeBP:
			if op.Queue < 0 || int(op.Queue) >= it.Queues {
				v.failf(op, "queue %d outside [0,%d)", op.Queue, it.Queues)
			}
		case OptStep:
			if op.GPU && (op.Queue < 0 || int(op.Queue) >= it.Queues) {
				v.failf(op, "GPU queue %d outside [0,%d)", op.Queue, it.Queues)
			}
		case Prefetch, Offload, NVMeStage, BufAcquire, BufRelease:
			minLayer = 0
		case Join:
			// A join carries no work of its own. It merges in-plan
			// branches: with one dependency it would only rename that
			// op, and cross-iteration facts gate the ops that need them,
			// not a join.
			if op.Deps.Len() < 2 {
				v.failf(op, "join has %d dependencies, needs at least 2", op.Deps.Len())
			}
			if op.Ext.Len() > 0 {
				v.failf(op, "join carries %d external dependencies; only in-plan ones may join", op.Ext.Len())
			}
		default:
			v.failf(op, "invalid kind %d", op.Kind)
		}
		if op.Export != 0 {
			minLayer = 0
		}
		if op.Layer < minLayer || int(op.Layer) >= it.Layers {
			v.failf(op, "layer %d outside [%d,%d)", op.Layer, minLayer, it.Layers)
		}
		if op.Frac != 0 {
			if !(op.Frac > 0 && op.Frac <= 1) {
				v.failf(op, "fraction %g outside (0,1]", op.Frac)
			}
			switch op.Kind {
			case OptStep, Prefetch, Offload:
			default:
				v.failf(op, "fraction on a %s op (only opt-step and moment-chunk transfers carry fractions)", op.Kind)
			}
		}
		for _, x := range it.Ext(op) {
			if x.Layer < 0 || x.Layer >= it.Layers {
				v.failf(op, "external dependency %s on layer %d outside [0,%d)", x.Kind, x.Layer, it.Layers)
			} else if x.Kind == ExtResident && !entry[x.Layer] {
				v.failf(op, "resident dependency on layer %d, which is not entry-resident", x.Layer)
			}
		}
	}
}

// onQueue reports whether the op occupies a FIFO execution queue.
func onQueue(op *Op) bool {
	return op.Kind == ComputeFP || op.Kind == ComputeBP || (op.Kind == OptStep && op.GPU)
}

// happensBefore reports whether a is in b's dependency closure
// (explicit deps plus same-queue FIFO edges). It searches backward from
// b and prunes every op with an ID below a: each edge points at a
// smaller ID, so no path from a to b leaves [a, b] and the pruning is
// exact. A query visits at most the ops in [a, b] and allocates
// nothing once the stack has grown.
func (v *validator) happensBefore(a, b ID) bool {
	if a >= b {
		return false
	}
	v.stamp++
	if v.stamp == 0 { // generation counter wrapped: forget every mark
		clear(v.seen)
		v.stamp = 1
	}
	found := false
	stack := append(v.stack[:0], b)
search:
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if q := ID(v.c.info[x].prev); q >= a && v.seen[q] != v.stamp {
			if q == a {
				found = true
				break
			}
			v.seen[q] = v.stamp
			stack = append(stack, q)
		}
		for _, d := range v.it.Deps(&v.it.Ops[x]) {
			if d >= a && v.seen[d] != v.stamp {
				if d == a {
					found = true
					break search
				}
				v.seen[d] = v.stamp
				stack = append(stack, d)
			}
		}
	}
	v.stack = stack
	return found
}

// firedBefore reports whether op a has provably completed by the time
// op b issues. Beyond plain closure membership, a zero-duration
// bookkeeping op (BufRelease/BufAcquire/Join) fires synchronously with
// its last dependency, so it has fired by b's issue whenever all its
// dependencies are in b's closure.
func (v *validator) firedBefore(a, b ID) bool {
	if v.happensBefore(a, b) {
		return true
	}
	op := &v.it.Ops[a]
	if op.Kind != BufRelease && op.Kind != BufAcquire && op.Kind != Join {
		return false
	}
	if op.Deps.Len() == 0 || op.Ext.Len() > 0 {
		return false
	}
	for _, d := range v.it.Deps(op) {
		if !v.happensBefore(d, b) {
			return false
		}
	}
	return true
}

// slots is the funding argument that bounds the window budget, the
// NVMe staging ring and the moment-chunk buffers under every event
// timing. The pool starts with spare slots, and every take must be
// funded by a spare or by a distinct returned slot whose op provably
// fires before it; then takes ≤ returns + spares at every instant, so
// no timing exceeds the bound. A nil pool is unbounded.
type slots struct {
	v     *validator
	spare int
	// returned holds, ascending, the slot-returning ops that have not
	// funded a take yet.
	returned []ID
}

// bounded returns a pool of n spare slots, or nil when n is 0.
func (v *validator) bounded(n int) *slots {
	if n == 0 {
		return nil
	}
	return &slots{v: v, spare: n}
}

// put returns a slot at op r.
func (p *slots) put(r ID) {
	if p != nil {
		p.returned = append(p.returned, r)
	}
}

// take funds op b, and reports false if nothing can: then some timing
// exceeds the bound at b. The lowest-ID returned slot that provably
// fired before b is the deterministic choice, and it leaves the pool;
// a spare is taken only when no returned slot qualifies.
func (p *slots) take(b ID) bool {
	if p == nil {
		return true
	}
	for k, r := range p.returned {
		if p.v.firedBefore(r, b) {
			p.returned = slices.Delete(p.returned, k, k+1)
			return true
		}
	}
	if p.spare > 0 {
		p.spare--
		return true
	}
	return false
}

// unheld marks a layer with no open epoch in a per-layer opener table,
// where -1 marks an epoch opened by entry residency.
const unheld ID = -2

// openers returns a per-layer opener table with every layer unheld.
func (v *validator) openers() []ID {
	t := make([]ID, v.it.Layers)
	for l := range t {
		t[l] = unheld
	}
	return t
}

// checkEpochs walks the canonical order tracking each layer's
// residency epochs: acquires open epochs, releases close them, and the
// final held set must equal the declared exit set. Each release must
// causally follow the acquire whose epoch it closes, and each
// layer-tagged compute the acquire that made its layer resident
// (entry-resident layers are exempt) — adjacency in the linear order is
// not enough for an event-driven executor: without the causal edge,
// through explicit deps or queue FIFO order, an interleaving exists
// where the kernel runs before its weights arrive. Missing releases are
// reported in layer order. With BudgetSlots set, the walk also bounds
// worst-case concurrent residency: the pool starts with
// BudgetSlots − |entry| spares, releases return slots, and every
// acquire takes one, funded through the §III-E3 recycling dependencies
// once no spare is left.
func (v *validator) checkEpochs() {
	it := v.it
	budget := v.bounded(it.BudgetSlots)
	if budget != nil {
		budget.spare -= len(it.EntryResident)
		if budget.spare < 0 {
			v.errs = append(v.errs, fmt.Sprintf("entry-resident set (%d layers) exceeds the %d-slot budget",
				len(it.EntryResident), it.BudgetSlots))
			budget = nil
		}
	}
	openedBy := v.openers() // layer → acquire that opened the current epoch
	for _, l := range it.EntryResident {
		openedBy[l] = -1
	}
	for i := range it.Ops {
		op := &it.Ops[i]
		switch op.Kind {
		case BufAcquire:
			if opener := openedBy[op.Layer]; opener != unheld {
				v.failf(op, "layer %d acquired while already resident (epoch opened by op %d)", op.Layer, opener)
			}
			openedBy[op.Layer] = op.ID
			if !budget.take(op.ID) {
				v.failf(op, "may exceed the %d-slot window budget: no spare slot left and no release provably completes before it",
					it.BudgetSlots)
			}
		case BufRelease:
			budget.put(op.ID)
			opener := openedBy[op.Layer]
			if opener == unheld {
				v.failf(op, "release of layer %d, which holds no buffers here", op.Layer)
				continue
			}
			if opener >= 0 && !v.happensBefore(opener, op.ID) {
				v.failf(op, "does not happen-after the acquire (op %d) it releases", opener)
			}
			openedBy[op.Layer] = unheld
		case ComputeFP, ComputeBP:
			if op.Layer < 0 {
				continue
			}
			opener := openedBy[op.Layer]
			if opener == unheld {
				v.failf(op, "computes on layer %d while it holds no buffers", op.Layer)
				continue
			}
			if opener >= 0 && !v.happensBefore(opener, op.ID) {
				v.failf(op, "does not happen-after the prefetch acquire (op %d) of layer %d", opener, op.Layer)
			}
		}
	}
	exit := make([]bool, it.Layers)
	for _, l := range it.ExitResident {
		exit[l] = true
	}
	for l, opener := range openedBy {
		switch {
		case opener == unheld || exit[l]:
		case opener >= 0:
			v.failf(&it.Ops[opener], "layer %d still holds buffers at iteration end (missing release)", l)
		default:
			v.errs = append(v.errs, fmt.Sprintf("entry-resident layer %d still holds buffers at iteration end (missing release)", l))
		}
	}
	for _, l := range it.ExitResident {
		if openedBy[l] == unheld {
			v.errs = append(v.errs, fmt.Sprintf("layer %d must exit resident but its buffers are released", l))
		}
	}
}

// checkNVMeRing proves the host staging-ring discipline when the plan
// declares a bounded ring (RingSlots > 0). Restages (NVMeStage
// Write=false) open ring epochs, spills (Write=true) close them; a
// layer must not restage while staged or spill while unstaged, each
// spill must causally follow the restage it closes, and every plain
// prefetch must read a staged layer — through an ExtNVMeStaged
// dependency or a causal edge from the restage that opened the current
// epoch. Ring occupancy is bounded by the same funding argument as the
// window budget: the ring starts with RingSlots spare slots, spills
// return them and restages take them.
func (v *validator) checkNVMeRing() {
	it := v.it
	if it.RingSlots == 0 {
		return
	}
	stagedBy := v.openers() // layer → restage that opened the current ring epoch
	ring := v.bounded(it.RingSlots)
	for i := range it.Ops {
		op := &it.Ops[i]
		switch op.Kind {
		case NVMeStage:
			opener := stagedBy[op.Layer]
			if op.Write {
				if opener == unheld {
					v.failf(op, "spill of layer %d, which is not in the staging ring here", op.Layer)
					continue
				}
				if !v.happensBefore(opener, op.ID) {
					v.failf(op, "does not happen-after the restage (op %d) it closes", opener)
				}
				stagedBy[op.Layer] = unheld
				ring.put(op.ID)
				continue
			}
			if opener != unheld {
				v.failf(op, "layer %d restaged while already in the ring (epoch opened by op %d)", op.Layer, opener)
			}
			stagedBy[op.Layer] = op.ID
			if !ring.take(op.ID) {
				v.failf(op, "may exceed the %d-slot staging ring: no spare slot left and no spill provably completes before it",
					it.RingSlots)
			}
		case Prefetch:
			if op.Frac != 0 {
				continue // moment-chunk transfer, not a ring read
			}
			staged := false
			for _, x := range it.Ext(op) {
				if x.Kind == ExtNVMeStaged && x.Layer == int(op.Layer) {
					staged = true
				}
			}
			if staged {
				continue
			}
			opener := stagedBy[op.Layer]
			if opener == unheld {
				v.failf(op, "prefetches layer %d, which is not in the staging ring here", op.Layer)
				continue
			}
			if !v.happensBefore(opener, op.ID) {
				v.failf(op, "does not happen-after the restage (op %d) that staged layer %d", opener, op.Layer)
			}
		}
	}
}

// checkFrac proves fractional optimizer placement (Frac-tagged ops).
// It is a partition: for every layer that splits its update, the
// fractional OptSteps sum to 1 (within 1e-6), and no layer mixes
// fractional steps with whole-layer ones — a mixed layer would apply
// part of its update twice. Both tables are indexed by layer+1, since
// the resident update carries layer -1. With OptSlots set, the moment
// chunks also stay within the device staging buffers by the window
// budget's funding argument: a chunk Offload returns a slot and a chunk
// Prefetch takes one.
func (v *validator) checkFrac() {
	it := v.it
	chunks := v.bounded(it.OptSlots)
	sums := make([]float64, it.Layers+1) // 0: no fractional step (fractions are positive)
	whole := make([]ID, it.Layers+1)     // first whole-layer step, -1 for none
	for l := range whole {
		whole[l] = -1
	}
	for i := range it.Ops {
		op := &it.Ops[i]
		switch {
		case op.Kind == OptStep:
			if op.Frac != 0 {
				sums[op.Layer+1] += op.Frac
			} else if whole[op.Layer+1] < 0 {
				whole[op.Layer+1] = op.ID
			}
		case op.Frac == 0: // not a moment chunk
		case op.Kind == Offload:
			chunks.put(op.ID)
		case !chunks.take(op.ID): // a chunk Prefetch
			v.failf(op, "may exceed the %d-slot moment staging budget: no spare slot left and no chunk offload provably completes before it",
				it.OptSlots)
		}
	}
	for k, sum := range sums {
		if sum == 0 {
			continue
		}
		l := k - 1
		if w := whole[k]; w >= 0 {
			v.failf(&it.Ops[w], "whole-layer opt-step on layer %d, which also has fractional opt-steps", l)
		}
		if diff := sum - 1; diff > 1e-6 || diff < -1e-6 {
			v.errs = append(v.errs, fmt.Sprintf("layer %d: fractional opt-steps sum to %g, want 1", l, sum))
		}
	}
}
