package plan

import (
	"testing"

	"stronghold/internal/sim"
)

// recordEnv is a minimal Env that records the executor's walk. Every op
// runs for max(DurNS, 1) of virtual time: CPU optimizer steps on a
// two-worker pool, everything else on its own timer. Kernels (ops with
// a queue) are ordered on one Stream per queue.
type recordEnv struct {
	eng     *sim.Engine
	pool    *sim.Pool
	streams []Stream
	run     *Run
	// facts answers Resolve; a missing entry means the fact holds.
	facts    map[ExtDep]*sim.Signal
	walked   []ID // ops in the order Compile visited them
	spans    map[ID][2]sim.Time
	resolved []ExtDep
	exported map[ExtDep]*sim.Signal
	t        *testing.T
}

func newRecordEnv(t *testing.T, queues int) *recordEnv {
	eng := sim.NewEngine()
	return &recordEnv{
		eng:      eng,
		pool:     sim.NewPool(eng, "cpu", 2),
		streams:  make([]Stream, queues),
		facts:    map[ExtDep]*sim.Signal{},
		spans:    map[ID][2]sim.Time{},
		exported: map[ExtDep]*sim.Signal{},
		t:        t,
	}
}

// execute compiles it against e and walks it, returning the run.
func (e *recordEnv) execute(it *Iteration) *Run {
	return execute(Compile(it.Ops, e), e.eng, e)
}

func (e *recordEnv) Start(op *Op, run *Run) {
	if _, dup := e.spans[op.ID]; dup {
		e.t.Errorf("op %d started twice", op.ID)
	}
	e.run = run
	dur := max(op.DurNS, 1)
	if op.Kind == OptStep && !op.GPU {
		e.pool.Submit(dur, e, int32(op.ID))
		return
	}
	start := e.eng.Now()
	e.eng.Schedule(dur, func() { e.Complete(int32(op.ID), start, e.eng.Now()) })
}

func (e *recordEnv) Complete(tag int32, start, end sim.Time) {
	e.spans[ID(tag)] = [2]sim.Time{start, end}
	e.run.Done(ID(tag))
}

func (e *recordEnv) Resolve(d ExtDep) *sim.Signal {
	e.resolved = append(e.resolved, d)
	return e.facts[d]
}

func (e *recordEnv) Export(op *Op, sig *sim.Signal) {
	e.exported[ExtDep{Kind: op.Export, Layer: op.Layer}] = sig
}

func (e *recordEnv) Stream(op *Op) *Stream {
	e.walked = append(e.walked, op.ID)
	if op.Queue < 0 {
		return nil
	}
	return &e.streams[op.Queue]
}

// factAt returns a fact signal that fires at virtual time at.
func (e *recordEnv) factAt(at sim.Time) *sim.Signal {
	s := sim.NewSignal(e.eng)
	e.eng.Schedule(at, s.Fire)
	return s
}

func TestExecuteWalksCanonicalOrder(t *testing.T) {
	spec := baseSpec()
	spec.Queues = 2
	it := mustBuild(t, spec)
	env := newRecordEnv(t, it.Queues)
	run := env.execute(it)
	env.eng.Run()
	if len(env.walked) != len(it.Ops) {
		t.Fatalf("compiled %d of %d ops", len(env.walked), len(it.Ops))
	}
	for i, id := range env.walked {
		if id != ID(i) {
			t.Fatalf("op %d compiled at position %d: not canonical order", id, i)
		}
	}
	if !run.end.Fired() {
		t.Fatal("iteration end never fired")
	}
	lastOnQueue := map[int]ID{}
	var wantExt int
	for i := range it.Ops {
		op := &it.Ops[i]
		wantExt += len(op.Ext)
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
		for _, d := range op.Deps {
			if dep, ok := env.spans[d]; ok && span[0] < dep[1] {
				t.Errorf("op %d started at %d before dep %d completed at %d", op.ID, span[0], d, dep[1])
			}
		}
		if op.Queue >= 0 {
			if prev, ok := lastOnQueue[op.Queue]; ok && span[0] < env.spans[prev][1] {
				t.Errorf("op %d started at %d before its stream predecessor %d completed at %d",
					op.ID, span[0], prev, env.spans[prev][1])
			}
			lastOnQueue[op.Queue] = op.ID
		}
		if op.Export != 0 {
			sig := env.exported[ExtDep{Kind: op.Export, Layer: op.Layer}]
			if sig == nil || !sig.Fired() || sig.FiredAt() != span[1] {
				t.Errorf("op %d: export %s:L%d not published at its completion", op.ID, op.Export, op.Layer)
			}
		}
	}
	for q, last := range lastOnQueue {
		if s := env.streams[q].last; s == nil || s.FiredAt() != env.spans[last][1] {
			t.Errorf("stream %d does not end at its last kernel %d", q, last)
		}
		if run.end.FiredAt() < env.spans[last][1] {
			t.Errorf("iteration end at %d before stream %d's last kernel %d", run.end.FiredAt(), q, last)
		}
	}
	// Every external dependency in the plan reached Resolve.
	if len(env.resolved) != wantExt {
		t.Errorf("resolved %d external deps, plan carries %d", len(env.resolved), wantExt)
	}
}

// TestExecuteGatesOnEveryDependency checks that an op starts only once
// its in-plan deps, its Ext facts and its stream predecessor have all
// completed, whichever resolves last.
func TestExecuteGatesOnEveryDependency(t *testing.T) {
	env := newRecordEnv(t, 2)
	optDone := ExtDep{Kind: ExtOptDone, Layer: 0}
	staged := ExtDep{Kind: ExtNVMeStaged, Layer: 0}
	env.facts[optDone] = env.factAt(7)
	env.facts[staged] = env.factAt(30)
	it := &Iteration{Queues: 2, Ops: []Op{
		{ID: 0, Kind: ComputeFP, Queue: 0, DurNS: 10},
		{ID: 1, Kind: ComputeFP, Queue: 0, DurNS: 10}, // stream predecessor only
		{ID: 2, Kind: Prefetch, Queue: -1, DurNS: 3, Ext: []ExtDep{optDone}},
		{ID: 3, Kind: OptStep, Queue: -1, DurNS: 10, Deps: []ID{2}, Ext: []ExtDep{staged}},
		{ID: 4, Kind: Join, Queue: -1, Deps: []ID{0, 2}},
		{ID: 5, Kind: Join, Queue: -1, Deps: []ID{1, 3}},
		{ID: 6, Kind: ComputeBP, Queue: 1, DurNS: 1, Deps: []ID{5}},
		{ID: 7, Kind: Offload, Queue: -1, DurNS: 1, Deps: []ID{4}},
	}}
	env.execute(it)
	env.eng.Run()
	for id, want := range map[ID][2]sim.Time{
		0: {0, 10},
		1: {10, 20}, // waits for op 0 on stream 0
		2: {7, 10},  // waits for the ExtOptDone fact
		3: {30, 40}, // dep 2 done at 10, ExtNVMeStaged at 30
		6: {40, 41}, // the join of ops 1 and 3 fires at 40; stream 1 is idle
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
	env := newRecordEnv(t, 0)
	env.pool.Submit(10, nil, 0) // worker 0 busy until 10
	env.pool.Submit(20, nil, 0) // worker 1 busy until 20
	// At t=2 a 50ns task lands on worker 0 (free first), keeping it
	// busy until 60: an issue-time pick would have chosen worker 0.
	env.eng.Schedule(2, func() { env.pool.Submit(50, nil, 0) })
	dep := ExtDep{Kind: ExtOptDone, Layer: 0}
	env.facts[dep] = env.factAt(5)
	it := &Iteration{Ops: []Op{{ID: 0, Kind: OptStep, Queue: -1, DurNS: 10, Ext: []ExtDep{dep}}}}
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
	env := newRecordEnv(t, 1)
	it := &Iteration{Queues: 1, Ops: []Op{
		{ID: 0, Kind: Join, Queue: -1},
		{ID: 1, Kind: Join, Queue: -1, Deps: []ID{0, 0}},
		{ID: 2, Kind: ComputeFP, Queue: 0, DurNS: 5, Deps: []ID{1}},
	}}
	run := env.execute(it)
	if run.left[0] != done || run.left[1] != done {
		t.Fatal("joins with completed dependencies must complete during the walk")
	}
	env.eng.Run()
	if got, want := env.spans[2], [2]sim.Time{0, 5}; got != want {
		t.Fatalf("kernel ran %v, want %v", got, want)
	}
	if !run.end.Fired() || run.end.FiredAt() != 5 {
		t.Fatalf("iteration end fired at %d, want 5", run.end.FiredAt())
	}
}

func TestExecuteDoneTwicePanics(t *testing.T) {
	env := newRecordEnv(t, 0)
	it := &Iteration{Ops: []Op{{ID: 0, Kind: Offload, Queue: -1, DurNS: 1}}}
	run := env.execute(it)
	env.eng.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("completing an op twice must panic")
		}
	}()
	run.Done(0)
}
