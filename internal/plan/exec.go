package plan

import "stronghold/internal/sim"

// Env is the execution environment a plan runs against. The executor
// owns the walk order and every dependency wait, including queue order
// and the facts that cross Execute calls (State); the environment owns
// the physics — how an op turns into simulated work. The core engine's
// environment maps ops onto hw.Machine streams, PCIe queues and the CPU
// optimizer pool, or, for explicit-duration plans, onto the machine's
// resources for each op's DurNS.
type Env interface {
	// Start runs op's work. The executor calls it once, after every
	// dependency of op has completed; the environment then calls
	// run.Done(op.ID, start) exactly once, when op completes — typically
	// from the sim.Completer it submitted the work with, tagged by
	// op.ID. Join ops never reach Start.
	Start(op *Op, run *Run)
}

// State is what outlives one Execute call: the last op issued on
// each queue, and the op that last published each (fact kind, layer).
// A run's iterations and patches share one State: an iteration's first
// kernel on a queue waits on the previous call's last one, as a CUDA
// stream orders its kernels, and an Ext dependency waits on the fact's
// latest Export, as a prefetch waits on a CUDA event. The zero value is
// a fresh run: every queue is idle and every fact already holds. A
// completed op gates nothing, exactly as the zero ref does.
// State also numbers the events of the recorded runs sharing it, every
// op completion and, with Detail set, every submit, so their Records
// can be replayed in one order.
type State struct {
	// Detail makes every recorded run record each submit the environment
	// reports (Record.Submit). Set it before the first Execute call.
	Detail bool
	// seq is the number of the last event stamped.
	seq uint32
	// tails[q] is queue q's last op issued so far.
	tails []ref
	// facts[l*extKinds+k-1] is the op that publishes fact kind k about
	// layer l; the zero ref while the fact holds from the start of the
	// run.
	facts []ref
}

// Events returns how many events the runs sharing st have numbered.
func (st *State) Events() uint32 { return st.seq }

// stamp numbers the next event.
func (st *State) stamp() uint32 {
	st.seq++
	return st.seq
}

// ref names one op of one Execute call: the op another call waits on,
// or an op waiting. The zero ref names no op.
type ref struct {
	run *Run
	op  int32
}

// pending reports whether r names an op that has not completed.
func (r ref) pending() bool { return r.run != nil && r.run.left[r.op] != done }

// extKinds is the number of ExtKind values a State keeps per layer.
const extKinds = int(ExtResident)

// fact returns the slot that publishes fact k about layer l.
func (st *State) fact(k ExtKind, l int) *ref {
	return &st.facts[l*extKinds+int(k)-1]
}

// size grows st to hold c's queues and fact layers. Execute calls it
// before the walk, so the walk itself never grows the tables.
func (st *State) size(c *Compiled) {
	if n := int(c.queues) - len(st.tails); n > 0 {
		st.tails = append(st.tails, make([]ref, n)...)
	}
	if n := int(c.layers)*extKinds - len(st.facts); n > 0 {
		st.facts = append(st.facts, make([]ref, n)...)
	}
}

// Compiled is a plan lowered for execution, built once per plan and
// reused by every Execute call. Dependencies inside the plan become a
// CSR successor table — op i's successors are succ[succAt[i]:succAt[i+1]],
// in ascending ID, an op listed once per edge (each Deps entry, and its
// queue predecessor) — so the executor counts and releases them by
// index. Only what another Execute call can wait on keeps a waiter
// list: the ops that export a fact and the last op of each queue.
type Compiled struct {
	g      Graph
	succAt []int32
	succ   []int32
	info   []opInfo
	// queues and layers size a State for the plan: one past the highest
	// queue an op occupies and the highest layer a fact names.
	queues  int32
	layers  int32
	bounds  int32 // number of ops carrying a waiter list
	endDeps int32 // Σ info[i].endWaits
}

// opInfo is the compiled per-op wiring.
type opInfo struct {
	prev  int32 // in-plan predecessor on the op's queue, -1 for none
	bound int32 // index of the op's waiter list, -1 for none
	// endWaits is how many times the iteration end waits on the op:
	// once as the plan's final op, once as a queue's last op.
	endWaits int32
	tail     bool // last op on its queue: becomes the State's tail
}

// Compile lowers g — an iteration's or a patch's ops, in canonical
// order — without checking it. Every op onQueue selects runs after the
// previous such op on op.Queue; Prepare lowers an iteration the same
// way and proves its invariants over those FIFO edges. A dependency
// that does not point at an earlier op is ignored; Prepare rejects such
// plans.
func Compile(g *Graph) *Compiled {
	ops := g.Ops
	n := len(ops)
	c := &Compiled{g: *g, succAt: make([]int32, n+1), info: make([]opInfo, n)}
	var last []int32 // last op seen per queue, -1 for none
	for i := range ops {
		op := &ops[i]
		in := &c.info[i]
		in.prev, in.bound = -1, -1
		if onQueue(op) {
			for len(last) <= int(op.Queue) {
				last = append(last, -1)
			}
			in.prev = last[op.Queue]
			last[op.Queue] = int32(i)
			if in.prev >= 0 {
				c.succAt[in.prev]++
			}
		}
		for _, d := range g.Deps(op) {
			if d >= 0 && int(d) < i {
				c.succAt[d]++
			}
		}
		for _, x := range g.Ext(op) {
			c.layers = max(c.layers, int32(x.Layer)+1)
		}
		if op.Export != 0 {
			c.layers = max(c.layers, op.Layer+1)
		}
	}
	c.queues = int32(len(last))
	for _, t := range last {
		if t >= 0 {
			c.info[t].tail = true
			c.info[t].endWaits++
		}
	}
	if n > 0 {
		c.info[n-1].endWaits++
	}
	// Prefix sums turn the counts into list ends; filling each list
	// from its end then leaves succAt[i] at list i's start.
	for i := 1; i <= n; i++ {
		c.succAt[i] += c.succAt[i-1]
	}
	c.succ = make([]int32, c.succAt[n])
	for i := n - 1; i >= 0; i-- {
		op := &ops[i]
		in := &c.info[i]
		if in.prev >= 0 {
			c.succAt[in.prev]--
			c.succ[c.succAt[in.prev]] = int32(i)
		}
		deps := g.Deps(op)
		for k := len(deps) - 1; k >= 0; k-- {
			if d := deps[k]; d >= 0 && int(d) < i {
				c.succAt[d]--
				c.succ[c.succAt[d]] = int32(i)
			}
		}
		if in.tail || op.Export != 0 {
			in.bound = c.bounds
			c.bounds++
		}
		c.endDeps += in.endWaits
	}
	return c
}

// Execute walks one iteration's compiled plan in canonical order,
// counting every op's outstanding dependencies and handing it to env
// once they have completed. Issue order is ID order, which is what
// makes plan execution deterministic: two walks of the same plan
// register the same waits in the same order. st carries queue tails
// and facts from earlier calls in, and this call's out. The returned
// Run ends once the plan's final op and the last op of every queue it
// issues on have completed; it keeps a per-op Record.
func Execute(c *Compiled, eng *sim.Engine, st *State, env Env) *Run {
	return execute(c, eng, st, env, true)
}

// ExecuteUnrecorded is Execute for a run whose ops' spans nobody reads,
// such as a warm-up iteration: it runs exactly as Execute does, but its
// Record stays empty and its events take no number from st, whatever
// st.Detail says. The runs sharing st that keep a record replay in the
// same order either way.
func ExecuteUnrecorded(c *Compiled, eng *sim.Engine, st *State, env Env) *Run {
	return execute(c, eng, st, env, false)
}

func execute(c *Compiled, eng *sim.Engine, st *State, env Env, record bool) *Run {
	st.size(c)
	n := len(c.g.Ops)
	x := &Run{
		c:       c,
		st:      st,
		env:     env,
		eng:     eng,
		left:    make([]int32, n),
		waiters: make([][]ref, c.bounds),
		endLeft: c.endDeps,
		endAt:   eng.Now(),
	}
	if record {
		x.rec = Record{Start: make([]sim.Time, n), End: make([]sim.Time, n), Seq: make([]uint32, n)}
		if st.Detail {
			x.rec.Submit = make([]sim.Time, n)
			x.rec.SubmitSeq = make([]uint32, n)
			x.rec.Worker = make([]int32, n)
		}
	}
	for i := range c.g.Ops {
		x.issue(int32(i))
	}
	return x
}

// Run is one Execute call's state: dense per-op dependency counts over
// the shared compiled plan. The environment reports completions to it,
// and later calls wait on its ops by reference.
//
// Ordering rules, which keep runs identical to a walk that gives every
// op its own signal:
//   - an op starts only once the walk has reached it; a completion
//     during the walk releases only ops already issued, and a later op
//     counts only the dependencies not yet complete when it is issued;
//   - an op reads as complete from the moment Done is called for it;
//     Done then releases its in-plan successors in ascending ID (once
//     per edge), then counts toward the iteration end, then releases
//     the ops waiting on it from outside the plan, in the order they
//     registered: walk order, each op's Ext facts first and then the
//     previous call's queue tail.
//
// An Ext fact that an earlier op of the same plan exports is waited on
// like a cross-call one, after that op's in-plan successors; planners
// order such ops with Deps instead.
type Run struct {
	c   *Compiled
	st  *State
	env Env
	eng *sim.Engine
	// left[i] counts op i's outstanding dependencies; done marks a
	// completed op.
	left []int32
	// waiters[info[i].bound] lists the ops waiting on op i from outside
	// the plan, in registration order.
	waiters [][]ref
	// issued is how far the walk has got: ops below it are issued.
	issued  int32
	endLeft int32
	endAt   sim.Time
	onEnd   []func()
	rec     Record
}

// Record is what one Execute call measured of its ops, indexed by op
// ID; an op that never completed keeps zeros. An ExecuteUnrecorded
// call's Record is empty.
type Record struct {
	// Start and End are each op's span: the start its environment
	// reported to Done, and the virtual time of the Done call.
	Start, End []sim.Time
	// Seq numbers each completion among the events of the runs sharing
	// the State, in the order the engine delivered them.
	Seq []uint32
	// Under State.Detail (nil otherwise), each Run.Submitted report:
	// when the op's work went on its resource, after any retry backoff;
	// that submit's number in the same sequence as Seq; and the pool
	// worker that took it.
	Submit    []sim.Time
	SubmitSeq []uint32
	Worker    []int32
}

// done marks a completed op in Run.left.
const done = -1

// Op returns the op with the given ID.
func (x *Run) Op(id ID) *Op { return &x.c.g.Ops[id] }

// Record returns the run's per-op record.
func (x *Run) Record() *Record { return &x.rec }

// Submitted reports that the environment put op id's work on a
// resource now, on the given pool worker (0 for a lone resource). It
// records nothing unless the run keeps a record and the State detail.
//
//vet:hotpath
func (x *Run) Submitted(id ID, worker int) {
	if x.rec.Submit != nil {
		x.rec.Submit[id], x.rec.SubmitSeq[id], x.rec.Worker[id] = x.eng.Now(), x.st.stamp(), int32(worker)
	}
}

// EndAt returns the time the iteration ended; valid once it has.
func (x *Run) EndAt() sim.Time { return x.endAt }

// OnEnd runs fn when the iteration ends, at once if it already has.
func (x *Run) OnEnd(fn func()) {
	if x.endLeft == 0 {
		fn()
		return
	}
	x.onEnd = append(x.onEnd, fn)
}

// issue counts op i's outstanding dependencies, waits on the
// cross-call ones, and starts the op if none is outstanding.
//
//vet:hotpath
func (x *Run) issue(i int32) {
	c, st := x.c, x.st
	op := &c.g.Ops[i]
	in := &c.info[i]
	var n int32
	for _, d := range c.g.Deps(op) {
		if d >= 0 && int32(d) < i && x.left[d] != done {
			n++
		}
	}
	for _, e := range c.g.Ext(op) {
		if p := *st.fact(e.Kind, e.Layer); p.pending() {
			n++
			p.run.wait(p.op, ref{x, i})
		}
	}
	if in.prev >= 0 {
		if x.left[in.prev] != done {
			n++
		}
	} else if onQueue(op) {
		if p := st.tails[op.Queue]; p.pending() {
			n++
			p.run.wait(p.op, ref{x, i})
		}
	}
	x.left[i] = n
	x.issued = i + 1
	if n == 0 {
		x.start(i)
	}
	if in.tail {
		st.tails[op.Queue] = ref{x, i}
	}
	if op.Export != 0 {
		*st.fact(op.Export, int(op.Layer)) = ref{x, i}
	}
}

// wait registers w to be released when op i completes.
func (x *Run) wait(i int32, w ref) {
	b := x.c.info[i].bound
	x.waiters[b] = append(x.waiters[b], w)
}

// start hands op i to the environment; a join completes at once.
//
//vet:hotpath
func (x *Run) start(i int32) {
	op := &x.c.g.Ops[i]
	if op.Kind == Join {
		x.Done(op.ID, x.eng.Now())
		return
	}
	x.env.Start(op, x)
}

// release counts one of op i's dependencies as complete.
//
//vet:hotpath
func (x *Run) release(i int32) {
	x.left[i]--
	if x.left[i] == 0 {
		x.start(i)
	}
}

// Done reports op id, started at start, complete at the current
// virtual time: it records the op's span if the run keeps a record,
// releases the op's in-plan successors, counts toward the iteration
// end, and releases whatever waits on the op from outside the plan.
// Completing an op twice panics.
//
//vet:hotpath
func (x *Run) Done(id ID, start sim.Time) {
	i := int32(id)
	if x.left[i] == done {
		panic("plan: op completed twice")
	}
	x.left[i] = done
	if x.rec.Seq != nil {
		x.rec.Start[i], x.rec.End[i], x.rec.Seq[i] = start, x.eng.Now(), x.st.stamp()
	}
	c := x.c
	in := &c.info[i]
	for _, j := range c.succ[c.succAt[i]:c.succAt[i+1]] {
		if j < x.issued {
			x.release(j)
		}
	}
	if in.endWaits > 0 {
		x.endLeft -= in.endWaits
		if x.endLeft == 0 {
			x.endAt = x.eng.Now()
			for _, fn := range x.onEnd {
				fn()
			}
			x.onEnd = nil
		}
	}
	if in.bound >= 0 {
		ws := x.waiters[in.bound]
		x.waiters[in.bound] = nil
		for _, w := range ws {
			w.run.release(w.op)
		}
	}
}
