package plan

import (
	"slices"
	"testing"

	"stronghold/internal/sim"
)

// fifoEnv runs every op on one of two FIFO resources and completes it
// through itself, tagged by op ID: the allocation-free way an
// environment reports completions.
type fifoEnv struct {
	eng *sim.Engine
	res [2]*sim.Resource
	run *Run
}

func (e *fifoEnv) Start(op *Op, run *Run) {
	if op.Kind == BufAcquire || op.Kind == BufRelease {
		run.Done(op.ID, e.eng.Now())
		return
	}
	run.Submitted(op.ID, 0)
	e.res[op.ID&1].Submit(max(op.DurNS, 1), e, int32(op.ID))
}

func (e *fifoEnv) Complete(tag int32, start, _ sim.Time) { e.run.Done(ID(tag), start) }

// rewind readies x for another walk of its plan, keeping its arrays,
// and its State for a fresh run.
func (x *Run) rewind() {
	clear(x.left)
	clear(x.st.tails)
	clear(x.st.facts)
	x.issued, x.endLeft = 0, x.c.endDeps
}

// TestZeroAllocHotPaths is the dynamic half of the HOTPATH.md contract:
// on a warmed compiled plan that waits on no fact, issuing, starting,
// releasing and completing every op — queue tails, exports and the
// detailed per-op record included — allocates nothing. The static half is stronghold-vet's hotalloc
// rule over the same functions.
func TestZeroAllocHotPaths(t *testing.T) {
	g := mustBuild(t, baseSpec()).Graph
	ops := slices.Clone(g.Ops)
	for i := range ops {
		// A pending Ext fact is a budgeted cross-call wait.
		ops[i].Ext = Range{}
	}
	g.Ops = ops
	eng := sim.NewEngine()
	env := &fifoEnv{eng: eng, res: [2]*sim.Resource{sim.NewResource(eng, "a"), sim.NewResource(eng, "b")}}
	x := Execute(Compile(&g), eng, &State{Detail: true}, env)
	env.run = x
	eng.Run() // warms the engine heap and the resources' rings
	walk := func() {
		x.rewind()
		for i := range ops {
			x.issue(int32(i))
		}
		eng.Run()
	}
	walk()
	allocs := testing.AllocsPerRun(100, walk)
	if allocs != 0 {
		t.Fatalf("executing a warmed in-plan schedule allocates %.1f times per walk, want 0", allocs)
	}
	for i, left := range x.left {
		if left != done || x.rec.Seq[i] == 0 {
			t.Fatalf("op %d never completed", i)
		}
	}
}
