package plan

import (
	"testing"

	"stronghold/internal/sim"
)

// recordEnv is a minimal Env that records the executor's walk. Every op
// runs for max(DurNS, 1) of virtual time: CPU optimizer steps on a
// two-worker pool, everything else on its own timer.
type recordEnv struct {
	eng  *sim.Engine
	pool *sim.Pool
	run  *Run
	st   State
	// walked lists the ops started during the walk, before the engine
	// runs, in the order Start saw them.
	walked []ID
	spans  map[ID][2]sim.Time
	t      *testing.T
}

func newRecordEnv(t *testing.T) *recordEnv {
	eng := sim.NewEngine()
	return &recordEnv{
		eng:   eng,
		pool:  sim.NewPool(eng, "cpu", 2),
		spans: map[ID][2]sim.Time{},
		t:     t,
	}
}

// execute compiles it and walks it against e's State, returning the
// run.
func (e *recordEnv) execute(it *Iteration) *Run {
	return Execute(Compile(&it.Graph), e.eng, &e.st, e)
}

func (e *recordEnv) Start(op *Op, run *Run) {
	if _, dup := e.spans[op.ID]; dup {
		e.t.Errorf("op %d started twice", op.ID)
	}
	e.run = run
	if e.eng.Steps() == 0 {
		e.walked = append(e.walked, op.ID)
	}
	dur := max(op.DurNS, 1)
	if op.Kind == OptStep && !op.GPU {
		e.pool.Worker(e.pool.Pick()).Submit(dur, e, int32(op.ID))
		return
	}
	start := e.eng.Now()
	e.eng.Schedule(dur, func() { e.Complete(int32(op.ID), start, e.eng.Now()) })
}

func (e *recordEnv) Complete(tag int32, start, end sim.Time) {
	e.spans[ID(tag)] = [2]sim.Time{start, end}
	e.run.Done(ID(tag), start)
}

// factAt publishes d at virtual time at, from a call of its own.
func (e *recordEnv) factAt(d ExtDep, at sim.Time) {
	Execute(Compile(&Graph{Ops: []Op{factOp(0, d, at)}}), e.eng, &e.st, timerEnv{e.eng})
}

// factOp is an op that publishes fact d at delay after it starts, when
// run by a timerEnv: what an earlier call's exporting op leaves behind.
func factOp(id int, d ExtDep, delay sim.Time) Op {
	return Op{ID: ID(id), Kind: Offload, Layer: int32(d.Layer), Queue: -1, DurNS: delay, Export: d.Kind}
}

// hand appends a hand-written op to g with its in-plan and
// cross-iteration dependencies, and returns its ID.
func (g *Graph) hand(op Op, deps []ID, ext ...ExtDep) ID {
	id := g.Add(op, deps...)
	g.SetExt(id, ext...)
	return id
}

// timerEnv completes every op DurNS after it starts, on an engine
// timer: one event per op.
type timerEnv struct{ eng *sim.Engine }

func (e timerEnv) Start(op *Op, run *Run) {
	start := e.eng.Now()
	e.eng.Schedule(op.DurNS, func() { run.Done(op.ID, start) })
}

func TestExecuteWalksCanonicalOrder(t *testing.T) {
	spec := baseSpec()
	spec.Queues = 2
	it := mustBuild(t, spec)
	env := newRecordEnv(t)
	run := env.execute(it)
	env.eng.Run()
	// The walk starts the ops ready at issue, in issue order: canonical
	// order means ascending ID.
	if len(env.walked) == 0 {
		t.Fatal("the walk started no op")
	}
	for k := 1; k < len(env.walked); k++ {
		if env.walked[k] <= env.walked[k-1] {
			t.Fatalf("walk started op %d after op %d: not canonical order", env.walked[k], env.walked[k-1])
		}
	}
	if run.endLeft != 0 {
		t.Fatal("iteration never ended")
	}
	lastOnQueue := map[int16]ID{}
	for i := range it.Ops {
		op := &it.Ops[i]
		if run.left[i] != done {
			t.Fatalf("op %d never completed", op.ID)
		}
		span, started := env.spans[op.ID]
		if op.Kind == Join {
			if started {
				t.Errorf("join %d reached the environment", op.ID)
			}
			continue
		}
		if !started {
			t.Fatalf("op %d never started", op.ID)
		}
		for _, d := range it.Deps(op) {
			if dep, ok := env.spans[d]; ok && span[0] < dep[1] {
				t.Errorf("op %d started at %d before dep %d completed at %d", op.ID, span[0], d, dep[1])
			}
		}
		if onQueue(op) {
			if prev, ok := lastOnQueue[op.Queue]; ok && span[0] < env.spans[prev][1] {
				t.Errorf("op %d started at %d before its queue predecessor %d completed at %d",
					op.ID, span[0], prev, env.spans[prev][1])
			}
			lastOnQueue[op.Queue] = op.ID
		}
		if op.Export != 0 && *env.st.fact(op.Export, int(op.Layer)) != (ref{run, int32(i)}) {
			t.Errorf("op %d: export %s:L%d not published", op.ID, op.Export, op.Layer)
		}
	}
	for q, last := range lastOnQueue {
		if env.st.tails[q] != (ref{run, int32(last)}) {
			t.Errorf("queue %d does not end at its last kernel %d", q, last)
		}
		if run.EndAt() < env.spans[last][1] {
			t.Errorf("iteration end at %d before queue %d's last kernel %d", run.EndAt(), q, last)
		}
	}
}

// TestExecuteGatesOnEveryDependency checks that an op starts only once
// its in-plan deps, its Ext facts and its queue predecessor have all
// completed, whichever resolves last.
func TestExecuteGatesOnEveryDependency(t *testing.T) {
	env := newRecordEnv(t)
	optDone := ExtDep{Kind: ExtOptDone, Layer: 0}
	staged := ExtDep{Kind: ExtNVMeStaged, Layer: 0}
	env.factAt(optDone, 7)
	env.factAt(staged, 30)
	it := &Iteration{Queues: 2}
	it.hand(Op{Kind: ComputeFP, Queue: 0, DurNS: 10}, nil)
	it.hand(Op{Kind: ComputeFP, Queue: 0, DurNS: 10}, nil) // queue predecessor only
	it.hand(Op{Kind: Prefetch, Queue: -1, DurNS: 3}, nil, optDone)
	it.hand(Op{Kind: OptStep, Queue: -1, DurNS: 10}, []ID{2}, staged)
	it.hand(Op{Kind: Join, Queue: -1}, []ID{0, 2})
	it.hand(Op{Kind: Join, Queue: -1}, []ID{1, 3})
	it.hand(Op{Kind: ComputeBP, Queue: 1, DurNS: 1}, []ID{5})
	it.hand(Op{Kind: Offload, Queue: -1, DurNS: 1}, []ID{4})
	env.execute(it)
	env.eng.Run()
	for id, want := range map[ID][2]sim.Time{
		0: {0, 10},
		1: {10, 20}, // waits for op 0 on queue 0
		2: {7, 10},  // waits for the ExtOptDone fact
		3: {30, 40}, // dep 2 done at 10, ExtNVMeStaged at 30
		6: {40, 41}, // the join of ops 1 and 3 fires at 40; queue 1 is idle
		7: {10, 11}, // the join of ops 0 and 2 fires at 10
	} {
		if got := env.spans[id]; got != want {
			t.Errorf("op %d ran %v, want %v", id, got, want)
		}
	}
}

// TestExecutePicksPoolWorkerOnResolve checks that an op dispatched to a
// worker pool picks its worker when its dependencies resolve, not when
// it is issued.
func TestExecutePicksPoolWorkerOnResolve(t *testing.T) {
	env := newRecordEnv(t)
	env.pool.Worker(env.pool.Pick()).Submit(10, nil, 0) // worker 0 busy until 10
	env.pool.Worker(env.pool.Pick()).Submit(20, nil, 0) // worker 1 busy until 20
	// At t=2 a 50ns task lands on worker 0 (free first), keeping it
	// busy until 60: an issue-time pick would have chosen worker 0.
	env.eng.Schedule(2, func() { env.pool.Worker(env.pool.Pick()).Submit(50, nil, 0) })
	dep := ExtDep{Kind: ExtOptDone, Layer: 0}
	env.factAt(dep, 5)
	it := &Iteration{}
	it.hand(Op{Kind: OptStep, Queue: -1, DurNS: 10}, nil, dep)
	env.execute(it)
	env.eng.Run()
	if got, want := env.spans[0], [2]sim.Time{20, 30}; got != want {
		t.Fatalf("optimizer step ran %v, want %v on the worker free first at resolve time", got, want)
	}
}

// TestExecuteCompletesSynchronousOpsDuringWalk covers ops that complete
// inside Start, before the walk reaches their successors: the walk
// counts them as done instead of waiting on them.
func TestExecuteCompletesSynchronousOpsDuringWalk(t *testing.T) {
	env := newRecordEnv(t)
	it := &Iteration{Queues: 1}
	it.hand(Op{Kind: Join, Queue: -1}, nil)
	it.hand(Op{Kind: Join, Queue: -1}, []ID{0, 0})
	it.hand(Op{Kind: ComputeFP, Queue: 0, DurNS: 5}, []ID{1})
	run := env.execute(it)
	if run.left[0] != done || run.left[1] != done {
		t.Fatal("joins with completed dependencies must complete during the walk")
	}
	env.eng.Run()
	if got, want := env.spans[2], [2]sim.Time{0, 5}; got != want {
		t.Fatalf("kernel ran %v, want %v", got, want)
	}
	if run.endLeft != 0 || run.EndAt() != 5 {
		t.Fatalf("iteration ended at %d, want 5", run.EndAt())
	}
}

func TestExecuteDoneTwicePanics(t *testing.T) {
	env := newRecordEnv(t)
	it := &Iteration{}
	it.Add(Op{Kind: Offload, Queue: -1, DurNS: 1})
	run := env.execute(it)
	env.eng.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("completing an op twice must panic")
		}
	}()
	run.Done(0, 0)
}
