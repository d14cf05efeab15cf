package sim

import "testing"

// nop is a package-level function so taking its value allocates
// nothing — unlike a closure literal, which would charge the measured
// loop with its own construction.
func nop() {}

// nopCompleter discards completions.
type nopCompleter struct{}

func (nopCompleter) Complete(int32, Time, Time) {}

// TestZeroAllocHotPaths is the dynamic half of the HOTPATH.md contract:
// on the steady state (heap capacity warmed), scheduling and running an
// event allocates nothing. The static half is stronghold-vet's hotalloc
// rule over the same functions.
func TestZeroAllocHotPaths(t *testing.T) {
	e := NewEngine()
	// Warm the heap's backing array — the one budgeted allocation.
	for i := 0; i < 64; i++ {
		e.Schedule(Time(i), nop)
	}
	e.Run()

	allocs := testing.AllocsPerRun(1000, func() {
		e.Schedule(1, nop)
		e.Schedule(2, nop)
		e.Schedule(1, nop)
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("schedule+run hot path allocates %.1f times per event batch, want 0", allocs)
	}

	// Re-arming and stopping a timer rewrite it in place.
	tm := e.NewTimer(nop)
	allocs = testing.AllocsPerRun(1000, func() {
		e.Reset(tm, 3)
		e.Reset(tm, 1)
		tm.Stop()
		e.Reset(tm, 2)
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("timer reset+stop+run allocates %.1f times per batch, want 0", allocs)
	}

	// Submission and completion by tag: resources, pools and the shared
	// processor reuse their rings, recycled tasks and scratch lists.
	r := NewResource(e, "copy")
	p := NewPool(e, "cpu", 2)
	sp := NewSharedProcessor(e, "gpu", 1e9)
	var c nopCompleter
	submit := func() {
		for i := int32(0); i < 4; i++ {
			r.Submit(10, c, i)
			p.Worker(p.Pick()).Submit(7, c, i)
			sp.Submit(1e3*float64(i+1), 4e8, c, i)
		}
		e.Run()
	}
	submit() // warm rings, task free list and scratch capacity
	if allocs := testing.AllocsPerRun(100, submit); allocs != 0 {
		t.Fatalf("submit+complete hot path allocates %.1f times per batch, want 0", allocs)
	}
}

// BenchmarkEngine is the CI alloc-gate's smoke benchmark: one
// schedule+dispatch round trip per iteration on a warm engine. The
// committed baseline pins allocs/op at zero; a regression fails the
// gate.
func BenchmarkEngine(b *testing.B) {
	e := NewEngine()
	for i := 0; i < 64; i++ {
		e.Schedule(Time(i), nop)
	}
	e.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(1, nop)
		e.Run()
	}
}
