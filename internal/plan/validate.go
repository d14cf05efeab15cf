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
// broken plan reports every problem at once.
func Validate(it *Iteration) error {
	v := &validator{it: it}
	v.checkStructure()
	if len(v.errs) == 0 {
		v.computeQueuePrev()
		v.checkBuffers()
		v.checkResidency()
		v.checkBudget()
		v.checkNVMeRing()
		v.checkFrac()
		v.checkOptSlots()
	}
	if len(v.errs) == 0 {
		return nil
	}
	return fmt.Errorf("plan: %d invariant violation(s):\n  %s", len(v.errs), strings.Join(v.errs, "\n  "))
}

type validator struct {
	it   *Iteration
	errs []string
	// queuePrev[i] is op i's predecessor on its execution queue (-1
	// for the first op on a queue and for ops off the queues).
	queuePrev []ID
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
// layer ranges, and external-dependency sanity.
func (v *validator) checkStructure() {
	it := v.it
	entry := make(map[int]bool, len(it.EntryResident))
	for _, l := range it.EntryResident {
		entry[l] = true
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
			if op.Frac < 0 || op.Frac > 1 {
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
			}
			if x.Kind == ExtResident && !entry[x.Layer] {
				v.failf(op, "resident dependency on layer %d, which is not entry-resident", x.Layer)
			}
		}
	}
}

// computeQueuePrev records each op's predecessor on its FIFO execution
// queue (streams launch in issue order), the one implicit edge the
// happens-before relation adds to the explicit dependencies, and sizes
// the search scratch space.
func (v *validator) computeQueuePrev() {
	it := v.it
	v.queuePrev = make([]ID, len(it.Ops))
	v.seen = make([]uint32, len(it.Ops))
	queueTail := make([]ID, it.Queues)
	for q := range queueTail {
		queueTail[q] = -1
	}
	for i := range it.Ops {
		op := &it.Ops[i]
		v.queuePrev[i] = -1
		if onQueue(op) {
			v.queuePrev[i] = queueTail[op.Queue]
			queueTail[op.Queue] = op.ID
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
		if q := v.queuePrev[x]; q >= a && v.seen[q] != v.stamp {
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

// fund looks for a slot to fund op b among pending, the ascending IDs
// of slot-returning ops (releases, spills, chunk offloads) that have
// not funded anything yet. The lowest-ID one that provably fired before
// b is the deterministic choice; it funds b and leaves pending, so
// each scan walks only candidates that are still pending.
func (v *validator) fund(pending *[]ID, b ID) bool {
	for k, r := range *pending {
		if v.firedBefore(r, b) {
			*pending = slices.Delete(*pending, k, k+1)
			return true
		}
	}
	return false
}

// checkBuffers walks the canonical order tracking each layer's
// residency epochs: acquires open epochs, releases close them, and the
// final held set must equal the declared exit set. Each release must
// also causally follow the acquire whose epoch it closes — adjacency
// in the linear order is not enough for an event-driven executor.
func (v *validator) checkBuffers() {
	it := v.it
	openedBy := make(map[int]ID) // layer → acquire that opened the current epoch (-1: entry)
	for _, l := range it.EntryResident {
		openedBy[l] = -1
	}
	for i := range it.Ops {
		op := &it.Ops[i]
		switch op.Kind {
		case BufAcquire:
			if opener, held := openedBy[int(op.Layer)]; held {
				v.failf(op, "layer %d acquired while already resident (epoch opened by op %d)", op.Layer, opener)
			}
			openedBy[int(op.Layer)] = op.ID
		case BufRelease:
			opener, held := openedBy[int(op.Layer)]
			if !held {
				v.failf(op, "release of layer %d, which holds no buffers here", op.Layer)
				continue
			}
			if opener >= 0 && !v.happensBefore(opener, op.ID) {
				v.failf(op, "does not happen-after the acquire (op %d) it releases", opener)
			}
			delete(openedBy, int(op.Layer))
		}
	}
	exit := make(map[int]bool, len(it.ExitResident))
	for _, l := range it.ExitResident {
		exit[l] = true
	}
	for l, opener := range openedBy {
		if !exit[l] {
			if opener >= 0 {
				v.failf(&it.Ops[opener], "layer %d still holds buffers at iteration end (missing release)", l)
			} else {
				v.errs = append(v.errs, fmt.Sprintf("entry-resident layer %d still holds buffers at iteration end (missing release)", l))
			}
		}
	}
	for _, l := range it.ExitResident {
		if _, held := openedBy[l]; !held {
			v.errs = append(v.errs, fmt.Sprintf("layer %d must exit resident but its buffers are released", l))
		}
	}
}

// checkResidency verifies every layer-tagged compute op happens-after
// the acquire that made its layer resident. The epoch is determined by
// the canonical order; the causal edge must exist through explicit
// deps or queue FIFO order, otherwise an execution interleaving exists
// where the kernel runs before its weights arrive.
func (v *validator) checkResidency() {
	it := v.it
	openedBy := make(map[int]ID)
	for _, l := range it.EntryResident {
		openedBy[l] = -1
	}
	for i := range it.Ops {
		op := &it.Ops[i]
		switch op.Kind {
		case BufAcquire:
			openedBy[int(op.Layer)] = op.ID
		case BufRelease:
			delete(openedBy, int(op.Layer))
		case ComputeFP, ComputeBP:
			if op.Layer < 0 {
				continue
			}
			opener, held := openedBy[int(op.Layer)]
			if !held {
				v.failf(op, "computes on layer %d while it holds no buffers", op.Layer)
				continue
			}
			if opener >= 0 && !v.happensBefore(opener, op.ID) {
				v.failf(op, "does not happen-after the prefetch acquire (op %d) of layer %d", opener, op.Layer)
			}
		}
	}
}

// checkBudget bounds worst-case concurrent residency with a funding
// argument: the pool starts with BudgetSlots − |entry| spare slots,
// and every acquire must either take a spare or be funded by a
// distinct release that provably fires before the acquire can issue
// (the §III-E3 recycling dependencies). If some acquire has neither, a
// timing exists — transfers finishing in an adversarial order — where
// the pool is exhausted at that acquire; with the funding matching in
// hand, fired-acquires ≤ fired-releases + spares at every instant, so
// no timing can exceed the budget.
func (v *validator) checkBudget() {
	it := v.it
	if it.BudgetSlots == 0 {
		return
	}
	spares := it.BudgetSlots - len(it.EntryResident)
	if spares < 0 {
		v.errs = append(v.errs, fmt.Sprintf("entry-resident set (%d layers) exceeds the %d-slot budget",
			len(it.EntryResident), it.BudgetSlots))
		return
	}
	var releases []ID // not yet funding an acquire, ascending
	for i := range it.Ops {
		op := &it.Ops[i]
		if op.Kind != BufAcquire {
			if op.Kind == BufRelease {
				releases = append(releases, op.ID)
			}
			continue
		}
		if v.fund(&releases, op.ID) {
			continue
		}
		if spares > 0 {
			spares--
			continue
		}
		v.failf(op, "may exceed the %d-slot window budget: no spare slot left and no release provably completes before it",
			it.BudgetSlots)
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
// window budget: the ring starts with RingSlots spare slots and every
// restage is funded by a spare or by a spill that provably fires
// before it.
func (v *validator) checkNVMeRing() {
	it := v.it
	if it.RingSlots == 0 {
		return
	}
	stagedBy := make(map[int]ID) // layer → restage that opened the current ring epoch
	spares := it.RingSlots
	var spills []ID // not yet funding a restage, ascending
	for i := range it.Ops {
		op := &it.Ops[i]
		switch op.Kind {
		case NVMeStage:
			if op.Write {
				opener, staged := stagedBy[int(op.Layer)]
				if !staged {
					v.failf(op, "spill of layer %d, which is not in the staging ring here", op.Layer)
					continue
				}
				if !v.happensBefore(opener, op.ID) {
					v.failf(op, "does not happen-after the restage (op %d) it closes", opener)
				}
				delete(stagedBy, int(op.Layer))
				spills = append(spills, op.ID)
			} else {
				if opener, staged := stagedBy[int(op.Layer)]; staged {
					v.failf(op, "layer %d restaged while already in the ring (epoch opened by op %d)", op.Layer, opener)
				}
				stagedBy[int(op.Layer)] = op.ID
				if !v.fund(&spills, op.ID) {
					if spares > 0 {
						spares--
					} else {
						v.failf(op, "may exceed the %d-slot staging ring: no spare slot left and no spill provably completes before it",
							it.RingSlots)
					}
				}
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
			opener, open := stagedBy[int(op.Layer)]
			if !open {
				v.failf(op, "prefetches layer %d, which is not in the staging ring here", op.Layer)
				continue
			}
			if !v.happensBefore(opener, op.ID) {
				v.failf(op, "does not happen-after the restage (op %d) that staged layer %d", opener, op.Layer)
			}
		}
	}
}

// checkFrac proves fractional optimizer placement is a partition: for
// every layer that splits its update, the fractional OptSteps sum to 1
// (within 1e-6), and no layer mixes fractional steps with whole-layer
// ones — a mixed layer would apply part of its update twice.
func (v *validator) checkFrac() {
	it := v.it
	sums := make(map[int]float64)
	whole := make(map[int]ID)
	for i := range it.Ops {
		op := &it.Ops[i]
		if op.Kind != OptStep {
			continue
		}
		if op.Frac != 0 {
			sums[int(op.Layer)] += op.Frac
		} else if _, seen := whole[int(op.Layer)]; !seen {
			whole[int(op.Layer)] = op.ID
		}
	}
	for l := -1; l < it.Layers; l++ {
		sum, fractional := sums[l]
		if !fractional {
			continue
		}
		if w, mixed := whole[l]; mixed {
			v.failf(&it.Ops[w], "whole-layer opt-step on layer %d, which also has fractional opt-steps", l)
		}
		if diff := sum - 1; diff > 1e-6 || diff < -1e-6 {
			v.errs = append(v.errs, fmt.Sprintf("layer %d: fractional opt-steps sum to %g, want 1", l, sum))
		}
	}
}

// checkOptSlots bounds the device staging buffers for fractional
// moment chunks (OptSlots > 0): a Frac-tagged Prefetch takes a slot, a
// Frac-tagged Offload returns one, and every take must be funded by a
// spare or by a return that provably fires before it — the same
// funding argument as the window budget.
func (v *validator) checkOptSlots() {
	it := v.it
	if it.OptSlots == 0 {
		return
	}
	spares := it.OptSlots
	var returns []ID // not yet funding a take, ascending
	for i := range it.Ops {
		op := &it.Ops[i]
		if op.Frac == 0 {
			continue
		}
		switch op.Kind {
		case Offload:
			returns = append(returns, op.ID)
		case Prefetch:
			if v.fund(&returns, op.ID) {
				continue
			}
			if spares > 0 {
				spares--
				continue
			}
			v.failf(op, "may exceed the %d-slot moment staging budget: no spare slot left and no chunk offload provably completes before it",
				it.OptSlots)
		}
	}
}
