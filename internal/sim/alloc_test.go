package sim

import "testing"

// nop is a package-level function so taking its value allocates
// nothing — unlike a closure literal, which would charge the measured
// loop with its own construction.
func nop() {}

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
