package plan

import (
	"fmt"
	"testing"

	"stronghold/internal/hw"
	"stronghold/internal/sim"
)

// This file keeps the executor's slow, obviously correct oracle: the
// walk that gives every op its own *signal and joins its dependencies
// with waitAll, as the executor did before plans were compiled. The
// differential tests run it and the compiled executor against one
// physics model and require the same completions, at the same times,
// in the same order, and the same engine step count.

// signal is the oracle's one-shot completion event, the simulated
// analogue of a CUDA event: work records a signal when it finishes,
// and other work waits on it before starting.
type signal struct {
	eng     *sim.Engine
	fired   bool
	at      sim.Time
	waiters []func()
}

func newSignal(eng *sim.Engine) *signal { return &signal{eng: eng} }

// fire marks s complete at the current virtual time, then runs its
// waiters in registration order. Firing twice panics.
func (s *signal) fire() {
	if s.fired {
		panic("oracle: signal fired twice")
	}
	s.fired, s.at = true, s.eng.Now()
	for _, w := range s.waiters {
		w()
	}
	s.waiters = nil
}

// wait runs fn once s fires, at once if it has.
func (s *signal) wait(fn func()) {
	if s.fired {
		fn()
		return
	}
	s.waiters = append(s.waiters, fn)
}

// oracleEnv is the environment the oracle walks against: Start gets a
// done callback instead of a Run, and the environment keeps the facts
// and queue tails that outlive a walk.
type oracleEnv interface {
	Start(op *Op, done func())
	// Resolve returns the signal publishing d; nil means d holds.
	Resolve(d ExtDep) *signal
	// Export publishes sig as op's op.Export fact about op.Layer.
	Export(op *Op, sig *signal)
	// Tail returns the slot holding the completion signal of the last
	// op issued on op's queue, or nil when op is on no queue.
	Tail(op *Op) **signal
}

// executeOracle walks ops in canonical order, wiring every op's
// dependencies on eng and handing it to env once they have fired. It
// returns the per-op completion signals, indexed by op ID.
func executeOracle(g *Graph, eng *sim.Engine, env oracleEnv) []*signal {
	sigs := make([]*signal, len(g.Ops))
	for i := range g.Ops {
		op := &g.Ops[i]
		deps := make([]*signal, 0, op.Deps.Len()+op.Ext.Len()+1)
		for _, d := range g.Deps(op) {
			deps = append(deps, sigs[d])
		}
		for _, x := range g.Ext(op) {
			if s := env.Resolve(x); s != nil {
				deps = append(deps, s)
			}
		}
		tail := env.Tail(op)
		if tail != nil && *tail != nil {
			deps = append(deps, *tail)
		}
		var sig *signal
		if op.Kind == Join && len(deps) == 1 {
			// Alias the lone dependency: a fresh signal would wake the
			// join's waiters at the join's place in the dependency's
			// waiter list rather than their own, reordering equal-time
			// events.
			sig = deps[0]
		} else {
			sig = newSignal(eng)
			waitAll(eng, deps, func() {
				if op.Kind == Join {
					sig.fire()
				} else {
					env.Start(op, sig.fire)
				}
			})
		}
		if tail != nil {
			*tail = sig
		}
		sigs[i] = sig
		if op.Export != 0 {
			env.Export(op, sig)
		}
	}
	return sigs
}

// waitAll runs fn once every signal in deps has fired. A nil or empty
// dependency list fires immediately. Nil entries are skipped.
func waitAll(eng *sim.Engine, deps []*signal, fn func()) {
	remaining := 0
	for _, d := range deps {
		if d != nil && !d.fired {
			remaining++
		}
	}
	if remaining == 0 {
		fn()
		return
	}
	for _, d := range deps {
		if d == nil || d.fired {
			continue
		}
		d.wait(func() {
			remaining--
			if remaining == 0 {
				fn()
			}
		})
	}
}

func TestOracleWaitAll(t *testing.T) {
	e := sim.NewEngine()
	a, b, fired := newSignal(e), newSignal(e), newSignal(e)
	fired.fire()
	var at sim.Time = -1
	waitAll(e, []*signal{a, b, nil, fired}, func() { at = e.Now() })
	e.Schedule(5, a.fire)
	e.Schedule(9, b.fire)
	e.Run()
	if at != 9 {
		t.Fatalf("waitAll fired at %d, want 9", at)
	}
	// Empty dependency list fires immediately.
	ran := false
	waitAll(e, nil, func() { ran = true })
	if !ran {
		t.Fatal("waitAll(nil) must run immediately")
	}
}

// completion is one entry of a world's log: an op of Execute call
// `call` ran [start, end]. Op -1 marks the call's iteration end.
type completion struct {
	call       int
	op         ID
	start, end sim.Time
}

// world is the physics both executors run against: PCIe copy engines,
// an NVMe queue and a two-worker CPU pool (FIFO resources), and one
// launch-latency stream per queue over a shared SM array — or, timed,
// one FIFO resource per queue with every op taking its DurNS. Ext facts
// start out published at seeded, often equal, times (seededFacts). The
// oracle keeps facts and queue tails in the world's own tables; the
// compiled executor in its State.
type world struct {
	eng    *sim.Engine
	m      *hw.Machine
	launch []*hw.Stream
	fifo   []*sim.Resource
	timed  bool
	tails  []*signal
	facts  map[ExtDep]*signal
	st     State
	log    []completion
	// exported[k] is when the k-th exported fact was published, in
	// Export order; -1 until it is.
	exported []sim.Time
	compiled map[*Iteration]*Compiled
	// runs holds the compiled executor's run of each logged call, and
	// unrecorded marks the calls it ran unrecorded; iterations counts
	// the iterations it has walked.
	runs       map[int]*Run
	unrecorded map[int]bool
	iterations int
}

func newWorld(queues int, timed bool) *world {
	eng := sim.NewEngine()
	plat := hw.V100Platform()
	plat.CPU.Cores = 2
	m := hw.NewMachine(eng, plat)
	w := &world{eng: eng, m: m, timed: timed, tails: make([]*signal, queues),
		facts: map[ExtDep]*signal{}, compiled: map[*Iteration]*Compiled{}, runs: map[int]*Run{},
		unrecorded: map[int]bool{}}
	for q := 0; q < queues; q++ {
		w.launch = append(w.launch, m.NewStream(fmt.Sprintf("w%d", q)))
		w.fifo = append(w.fifo, sim.NewResource(eng, fmt.Sprintf("q%d", q)))
	}
	return w
}

// seededFacts are the facts a run starts from, as ops that publish
// them: each (kind, layer) holds already, or is published at 0, 500 or
// 1000 ns.
func seededFacts(layers int, seed uint64) []Op {
	var ops []Op
	state := seed*0x9e3779b97f4a7c15 + 1
	for l := 0; l < layers; l++ {
		for _, k := range []ExtKind{ExtOptDone, ExtNVMeStaged, ExtResident} {
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			if pick := state % 4; pick > 0 {
				ops = append(ops, factOp(len(ops), ExtDep{Kind: k, Layer: l}, sim.Time(pick-1)*500))
			}
		}
	}
	return ops
}

// start submits op's work, completing through c with the op's ID.
func (w *world) start(op *Op, c sim.Completer) {
	tag := int32(op.ID)
	switch op.Kind {
	case BufAcquire, BufRelease:
		c.Complete(tag, w.eng.Now(), w.eng.Now())
	case ComputeFP, ComputeBP:
		w.kernel(op, c)
	case OptStep:
		if op.GPU {
			w.kernel(op, c)
		} else {
			w.m.CPUPool.Worker(w.m.CPUPool.Pick()).Submit(max(op.DurNS, 1), c, tag)
		}
	case Prefetch, Offload:
		res := w.m.D2H
		if op.Kind == Prefetch {
			res = w.m.H2D
		}
		res.Submit(w.dur(op, op.Bytes>>14*100+100), c, tag)
	case NVMeStage:
		w.m.NVMeQ.Submit(w.dur(op, op.Bytes>>12+1), c, tag)
	default:
		panic(fmt.Sprintf("world: op %d of kind %v started", op.ID, op.Kind))
	}
}

func (w *world) kernel(op *Op, c sim.Completer) {
	if w.timed {
		w.fifo[op.Queue].Submit(op.DurNS, c, int32(op.ID))
		return
	}
	w.launch[op.Queue].Launch(op.Flops, 0.5, c, int32(op.ID))
}

// dur is op's occupancy: its DurNS when timed, else the byte-derived
// fallback (quantized, so equal-size transfers tie).
func (w *world) dur(op *Op, fallback sim.Time) sim.Time {
	if w.timed {
		return op.DurNS
	}
	return fallback
}

// tail orders every op on an execution queue, timed or not, as the
// compiled executor does.
func (w *world) tail(op *Op) **signal {
	if !onQueue(op) {
		return nil
	}
	return &w.tails[op.Queue]
}

// export publishes sig as op's fact and logs when it fires.
func (w *world) export(op *Op, sig *signal) {
	w.facts[ExtDep{Kind: op.Export, Layer: int(op.Layer)}] = sig
	k := len(w.exported)
	w.exported = append(w.exported, -1)
	sig.wait(func() { w.exported[k] = sig.at })
}

// watchExports logs when each fact a compiled walk of ops exported is
// published, in Export order: a call of one op per fact waits on it in
// the State, and starts the moment the exporting op completes. Every
// plan here exports each (kind, layer) at most once, so the State
// still names each exporting op.
func (w *world) watchExports(ops []Op) {
	var watch Graph
	for i := range ops {
		if op := &ops[i]; op.Export != 0 {
			watch.hand(Op{Kind: BufAcquire, Layer: op.Layer, Queue: -1}, nil, ExtDep{Kind: op.Export, Layer: int(op.Layer)})
		}
	}
	wt := &watcher{w: w, base: len(w.exported)}
	for range watch.Ops {
		w.exported = append(w.exported, -1)
	}
	Execute(Compile(&watch), w.eng, &w.st, wt)
}

// watcher logs the time each watch op starts and completes it.
type watcher struct {
	w    *world
	base int
}

func (c *watcher) Start(op *Op, run *Run) {
	c.w.exported[c.base+int(op.ID)] = c.w.eng.Now()
	run.Done(op.ID, c.w.eng.Now())
}

// call is one compiled Execute call's environment and completer.
type call struct {
	w   *world
	id  int
	run *Run
}

func (c *call) Start(op *Op, run *Run) {
	c.run = run
	c.w.start(op, c)
}

func (c *call) Complete(tag int32, start, end sim.Time) {
	c.w.log = append(c.w.log, completion{call: c.id, op: ID(tag), start: start, end: end})
	c.run.Done(ID(tag), start)
}

// oracleCall is one oracle walk's environment.
type oracleCall struct {
	w  *world
	id int
}

func (c *oracleCall) Start(op *Op, done func()) {
	c.w.start(op, &oracleDone{c: c, done: done})
}

func (c *oracleCall) Resolve(d ExtDep) *signal   { return c.w.facts[d] }
func (c *oracleCall) Export(op *Op, sig *signal) { c.w.export(op, sig) }
func (c *oracleCall) Tail(op *Op) **signal       { return c.w.tail(op) }

// oracleDone logs an op's completion, then fires its signal.
type oracleDone struct {
	c    *oracleCall
	done func()
}

func (o *oracleDone) Complete(tag int32, start, end sim.Time) {
	o.c.w.log = append(o.c.w.log, completion{call: o.c.id, op: ID(tag), start: start, end: end})
	o.done()
}

// executor runs iterations and patches in a world: the compiled
// executor or the oracle. iterate returns the function that runs its
// argument at the iteration's end.
type executor interface {
	seed(w *world, facts []Op)
	iterate(w *world, id int, it *Iteration) (onEnd func(func()))
	patch(w *world, id int, p *Patch)
}

// compiledExec is the compiled executor. Its first warmup iterations
// run unrecorded (ExecuteUnrecorded), as an engine's warm-up iterations
// do; every other call keeps its record.
type compiledExec struct{ warmup int }

// seed publishes the facts from a call of their own.
func (compiledExec) seed(w *world, facts []Op) {
	Execute(Compile(&Graph{Ops: facts}), w.eng, &w.st, timerEnv{w.eng})
}

func (ex compiledExec) iterate(w *world, id int, it *Iteration) func(func()) {
	c := w.compiled[it]
	if c == nil {
		c = Compile(&it.Graph)
		w.compiled[it] = c
	}
	execute := Execute
	if w.iterations < ex.warmup {
		execute = ExecuteUnrecorded
		w.unrecorded[id] = true
	}
	w.iterations++
	run := execute(c, w.eng, &w.st, &call{w: w, id: id})
	w.runs[id] = run
	w.watchExports(it.Ops)
	return run.OnEnd
}

func (compiledExec) patch(w *world, id int, p *Patch) {
	w.runs[id] = p.Apply(w.eng, &w.st, &call{w: w, id: id})
	w.watchExports(p.Ops)
}

type oracleExec struct{}

// seed publishes each fact from a timer-fired signal.
func (oracleExec) seed(w *world, facts []Op) {
	for i := range facts {
		op := &facts[i]
		s := newSignal(w.eng)
		w.eng.Schedule(op.DurNS, s.fire)
		w.facts[ExtDep{Kind: op.Export, Layer: int(op.Layer)}] = s
	}
}

// iterate walks the plan and joins its final op with every queue's
// last op into the iteration end.
func (oracleExec) iterate(w *world, id int, it *Iteration) func(func()) {
	sigs := executeOracle(&it.Graph, w.eng, &oracleCall{w: w, id: id})
	var deps []*signal
	if len(sigs) > 0 {
		deps = append(deps, sigs[len(sigs)-1])
	}
	deps = append(deps, w.tails...)
	end := newSignal(w.eng)
	waitAll(w.eng, deps, end.fire)
	return end.wait
}

func (oracleExec) patch(w *world, id int, p *Patch) {
	executeOracle(&p.Graph, w.eng, &oracleCall{w: w, id: id})
}

// scenario is one differential run: plans[windows[k]] is iteration k's
// plan. Upfront walks every iteration before the engine runs (the
// clean engine path); otherwise each iteration is walked when the
// previous one ends, after the patch between their windows (the
// adaptive path).
type scenario struct {
	layers, queues int
	timed          bool
	seed           uint64
	upfront        bool
	plans          map[int]*Iteration
	windows        []int
}

// outcome is everything the two executors must agree on.
type outcome struct {
	log      []completion
	exported []sim.Time
	steps    uint64
}

func (sc scenario) run(t testing.TB, ex executor) outcome {
	w := newWorld(sc.queues, sc.timed)
	ex.seed(w, seededFacts(sc.layers, sc.seed))
	calls := 0
	next := func() int { calls++; return calls - 1 }
	iterate := func(k int) func(func()) {
		id := next()
		onEnd := ex.iterate(w, id, sc.plans[sc.windows[k]])
		onEnd(func() { w.log = append(w.log, completion{call: id, op: -1, start: w.eng.Now()}) })
		return onEnd
	}
	if sc.upfront {
		for k := range sc.windows {
			iterate(k)
		}
	} else {
		var schedule func(k int)
		schedule = func(k int) {
			if k >= len(sc.windows) {
				return
			}
			if from, to := sc.windows[max(k-1, 0)], sc.windows[k]; from != to {
				p, err := Diff(sc.plans[from], sc.plans[to])
				if err != nil {
					t.Fatal(err)
				}
				ex.patch(w, next(), p)
			}
			iterate(k)(func() { schedule(k + 1) })
		}
		schedule(0)
	}
	w.eng.Run()
	w.checkRecords(t)
	return outcome{log: w.log, exported: w.exported, steps: w.eng.Steps()}
}

// checkRecords requires the compiled runs' Records to replay the log:
// every logged completion's span, with completion numbers rising in log
// order; an unrecorded run's Record stays empty. The oracle keeps no
// runs, so it passes trivially.
func (w *world) checkRecords(t testing.TB) {
	t.Helper()
	var last uint32
	for _, c := range w.log {
		run := w.runs[c.call]
		if run == nil || c.op < 0 {
			continue
		}
		rec := run.Record()
		if w.unrecorded[c.call] {
			if rec.Start != nil || rec.End != nil || rec.Seq != nil {
				t.Fatalf("call %d: unrecorded run kept a record", c.call)
			}
			continue
		}
		if rec.Start[c.op] != c.start || rec.End[c.op] != c.end {
			t.Fatalf("call %d op %d: record spans [%d, %d], completion logged [%d, %d]",
				c.call, c.op, rec.Start[c.op], rec.End[c.op], c.start, c.end)
		}
		if rec.Seq[c.op] <= last {
			t.Fatalf("call %d op %d: completion number %d does not follow %d", c.call, c.op, rec.Seq[c.op], last)
		}
		last = rec.Seq[c.op]
	}
}

// checkAgainstOracle runs sc under the oracle and the compiled executor,
// recording every call and with all but the last iteration unrecorded,
// and compares.
func checkAgainstOracle(t testing.TB, sc scenario) {
	t.Helper()
	want := sc.run(t, oracleExec{})
	if len(want.log) == 0 {
		t.Fatal("oracle run completed nothing")
	}
	for _, ex := range []compiledExec{{}, {warmup: len(sc.windows) - 1}} {
		got := sc.run(t, ex)
		for i := 0; i < min(len(got.log), len(want.log)); i++ {
			if got.log[i] != want.log[i] {
				t.Fatalf("completion %d: compiled executor (%+v) logged %+v, oracle %+v", i, ex, got.log[i], want.log[i])
			}
		}
		if len(got.log) != len(want.log) {
			t.Fatalf("compiled executor (%+v) logged %d completions, oracle %d", ex, len(got.log), len(want.log))
		}
		if fmt.Sprint(got.exported) != fmt.Sprint(want.exported) {
			t.Fatalf("compiled executor (%+v): exported facts fired at %v, oracle %v", ex, got.exported, want.exported)
		}
		if got.steps != want.steps {
			t.Fatalf("compiled executor (%+v) ran %d steps, oracle %d", ex, got.steps, want.steps)
		}
	}
}

// executeSpecs is Build's feature matrix for the differential tests.
func executeSpecs() map[string]Spec {
	specs := fixtureSpecs()
	multi := baseSpec()
	multi.Queues = 3
	specs["multi-queue"] = multi
	syncOnly := baseSpec()
	syncOnly.Sync = true
	specs["sync-only"] = syncOnly
	single := baseSpec()
	single.SingleOpt = true
	specs["single-opt"] = single
	all := specs["coopt"]
	all.NVMe, all.Queues, all.GradSyncFlops = true, 2, 1e8
	all.LayerScale = specs["hetero"].LayerScale
	specs["nvme-coopt-multi-hetero"] = all
	deep := baseSpec()
	deep.Layers, deep.Window = 17, 5
	specs["deep"] = deep
	return specs
}

// plansAround builds s's plan at its window and at the neighbouring
// windows the chained scenarios patch between.
func plansAround(t testing.TB, s Spec) map[int]*Iteration {
	plans := map[int]*Iteration{}
	for _, m := range []int{s.Window - 1, s.Window, s.Window + 1} {
		if m < 1 || m > s.Layers {
			continue
		}
		sm := s
		sm.Window = m
		it, err := Build(sm)
		if err != nil {
			t.Fatal(err)
		}
		if err := Validate(it); err != nil {
			t.Fatal(err)
		}
		plans[m] = it
	}
	return plans
}

// windowWalk grows then shrinks around m, within the built plans.
func windowWalk(plans map[int]*Iteration, m int) []int {
	ws := []int{m}
	for _, next := range []int{m + 1, m, m - 1, m} {
		if plans[next] != nil {
			ws = append(ws, next)
		}
	}
	return ws
}

func TestExecuteMatchesOracle(t *testing.T) {
	for name, s := range executeSpecs() {
		plans := plansAround(t, s)
		for _, seed := range []uint64{1, 2} {
			t.Run(fmt.Sprintf("%s/seed%d/upfront", name, seed), func(t *testing.T) {
				checkAgainstOracle(t, scenario{layers: s.Layers, queues: s.Queues, seed: seed, upfront: true,
					plans: plans, windows: []int{s.Window, s.Window, s.Window}})
			})
			t.Run(fmt.Sprintf("%s/seed%d/patched", name, seed), func(t *testing.T) {
				checkAgainstOracle(t, scenario{layers: s.Layers, queues: s.Queues, seed: seed,
					plans: plans, windows: windowWalk(plans, s.Window)})
			})
		}
	}
}

// handPlans are explicit-duration plans exercising what Build never
// emits: duplicate edges, ops that complete inside the walk, wide
// fan-out with equal durations, facts exported for the next call, and
// a kernel whose only wait is its queue predecessor.
func handPlans() map[string]*Iteration {
	fanout := &Iteration{Layers: 2, Queues: 2}
	fanout.hand(Op{Kind: ComputeFP, Layer: 0, Queue: 0, DurNS: 10}, nil, ExtDep{Kind: ExtOptDone, Layer: 0})
	fanout.hand(Op{Kind: ComputeFP, Layer: 1, Queue: 1, DurNS: 10}, nil, ExtDep{Kind: ExtOptDone, Layer: 1})
	fanout.hand(Op{Kind: BufAcquire, Layer: 0, Queue: -1}, nil, ExtDep{Kind: ExtNVMeStaged, Layer: 0})
	fanout.hand(Op{Kind: Prefetch, Layer: 0, Queue: -1, DurNS: 10}, []ID{2})
	fanout.hand(Op{Kind: ComputeFP, Layer: 0, Queue: 0, DurNS: 5}, []ID{3, 0})
	fanout.hand(Op{Kind: Join, Layer: 0, Queue: -1}, []ID{1, 4})
	fanout.hand(Op{Kind: OptStep, Layer: 0, Queue: -1, DurNS: 10, Export: ExtOptDone}, []ID{5})
	fanout.hand(Op{Kind: Offload, Layer: 1, Queue: -1, DurNS: 10, Export: ExtNVMeStaged}, []ID{1})
	fanout.hand(Op{Kind: BufRelease, Layer: 0, Queue: -1}, []ID{3})
	fanout.hand(Op{Kind: ComputeBP, Layer: 1, Queue: 1, DurNS: 10}, []ID{6})
	fanout.hand(Op{Kind: NVMeStage, Layer: 1, Queue: -1, DurNS: 10}, []ID{7})
	fanout.hand(Op{Kind: OptStep, Layer: -1, Queue: 0, GPU: true, DurNS: 10, Flops: 1e9}, []ID{9, 10})
	ties := &Iteration{Layers: 2, Queues: 2}
	ties.hand(Op{Kind: BufAcquire, Layer: 0, Queue: -1}, nil, ExtDep{Kind: ExtNVMeStaged, Layer: 0})
	ties.hand(Op{Kind: BufAcquire, Layer: 1, Queue: -1}, []ID{0})
	ties.hand(Op{Kind: Prefetch, Layer: 0, Queue: -1, DurNS: 5}, []ID{0, 1})
	ties.hand(Op{Kind: Prefetch, Layer: 1, Queue: -1, DurNS: 5}, []ID{1, 1})
	ties.hand(Op{Kind: Offload, Layer: 0, Queue: -1, DurNS: 5}, []ID{1})
	ties.hand(Op{Kind: ComputeFP, Layer: 0, Queue: 0, DurNS: 5}, []ID{2, 3})
	ties.hand(Op{Kind: ComputeFP, Layer: 1, Queue: 1, DurNS: 5}, []ID{2, 3})
	ties.hand(Op{Kind: Join, Layer: 0, Queue: -1, Export: ExtNVMeStaged}, []ID{5, 6})
	ties.hand(Op{Kind: OptStep, Layer: 1, Queue: -1, DurNS: 5}, []ID{4}, ExtDep{Kind: ExtOptDone, Layer: 1})
	ties.hand(Op{Kind: OptStep, Layer: 0, Queue: -1, DurNS: 5}, []ID{4})
	ties.hand(Op{Kind: ComputeBP, Layer: 0, Queue: 0, DurNS: 5}, []ID{7, 8, 5})
	ties.hand(Op{Kind: ComputeBP, Layer: 1, Queue: 1, DurNS: 5}, []ID{9})
	ties.hand(Op{Kind: BufRelease, Layer: 0, Queue: -1}, []ID{10, 11})
	ties.hand(Op{Kind: BufRelease, Layer: 1, Queue: -1}, []ID{12})
	// fp L0 waits on a slow prefetch; bp L0 has no dependency but
	// must still run after it on queue 0.
	queueOrder := &Iteration{Layers: 1, Queues: 1}
	queueOrder.hand(Op{Kind: BufAcquire, Layer: 0, Queue: -1}, nil)
	queueOrder.hand(Op{Kind: Prefetch, Layer: 0, Queue: -1, DurNS: 1000}, []ID{0})
	queueOrder.hand(Op{Kind: ComputeFP, Layer: 0, Queue: 0, DurNS: 10}, []ID{1})
	queueOrder.hand(Op{Kind: ComputeBP, Layer: 0, Queue: 0, DurNS: 10}, nil)
	queueOrder.hand(Op{Kind: BufRelease, Layer: 0, Queue: -1}, []ID{3})
	return map[string]*Iteration{"fanout": fanout, "ties": ties, "queue-order": queueOrder}
}

func TestExecuteMatchesOracleOnHandPlans(t *testing.T) {
	for name, it := range handPlans() {
		for _, timed := range []bool{true, false} {
			for _, seed := range []uint64{1, 2, 3} {
				t.Run(fmt.Sprintf("%s/timed=%v/seed%d", name, timed, seed), func(t *testing.T) {
					plans := map[int]*Iteration{0: it}
					checkAgainstOracle(t, scenario{layers: it.Layers, queues: it.Queues, timed: timed, seed: seed,
						upfront: true, plans: plans, windows: []int{0, 0, 0}})
					checkAgainstOracle(t, scenario{layers: it.Layers, queues: it.Queues, timed: timed, seed: seed,
						plans: plans, windows: []int{0, 0, 0}})
				})
			}
		}
	}
}

// FuzzExecute runs random planner specs through both executors, walked
// up front and chained with grow/shrink patches.
func FuzzExecute(f *testing.F) {
	f.Add(uint8(5), uint8(1), uint8(0), uint8(0), uint8(0), uint8(1))
	f.Add(uint8(7), uint8(3), uint8(3), uint8(8), uint8(0), uint8(2))
	f.Add(uint8(9), uint8(2), uint8(1), uint8(7), uint8(64), uint8(3))
	f.Add(uint8(0), uint8(0), uint8(0), uint8(1), uint8(0), uint8(4))
	f.Fuzz(func(t *testing.T, layers, window, queues, features, optFrac, seed uint8) {
		s := baseSpec()
		s.Layers = 1 + int(layers)%24
		s.Window = 1 + int(window)%s.Layers
		s.Queues = 1 + int(queues)%4
		s.NVMe = features&1 != 0
		s.Sync = features&2 != 0
		s.SingleOpt = features&4 != 0
		if features&8 != 0 {
			s.GradSyncFlops = 1e8
		}
		if features&16 != 0 {
			s.LayerScale = make([]float64, s.Layers)
			for i := range s.LayerScale {
				s.LayerScale[i] = 0.5 + float64((i*7+int(seed))%4)/2
			}
		}
		if optFrac != 0 {
			s.OptGPUFrac = float64(optFrac) / 256
			s.MomentBytes = 1 << 20
			s.GPUOptFlops = 4e8
		}
		if _, err := Build(s); err != nil {
			return // the planner rejects the combination
		}
		plans := plansAround(t, s)
		checkAgainstOracle(t, scenario{layers: s.Layers, queues: s.Queues, seed: uint64(seed), upfront: true,
			plans: plans, windows: []int{s.Window, s.Window}})
		checkAgainstOracle(t, scenario{layers: s.Layers, queues: s.Queues, seed: uint64(seed),
			plans: plans, windows: windowWalk(plans, s.Window)})
	})
}
