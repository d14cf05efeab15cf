package sim

import (
	"strings"
	"testing"
	"testing/quick"
)

// Microseconds converts float microseconds to a virtual duration.
func Microseconds(us float64) Time { return Time(us * 1e3) }

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	end := e.Run()
	if end != 30 {
		t.Fatalf("end time %d, want 30", end)
	}
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("order %v", order)
		}
	}
}

func TestEngineTieBreakBySubmissionOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.Schedule(10, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events must fire in scheduling order: %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var times []Time
	e.Schedule(5, func() {
		times = append(times, e.Now())
		e.Schedule(7, func() { times = append(times, e.Now()) })
	})
	e.Run()
	if len(times) != 2 || times[0] != 5 || times[1] != 12 {
		t.Fatalf("times %v", times)
	}
	if e.Steps() != 2 {
		t.Fatalf("Steps = %d", e.Steps())
	}
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.Schedule(-1, func() {})
}

func TestTimeConversions(t *testing.T) {
	if Seconds(1e9) != 1 {
		t.Fatal("Seconds")
	}
	if FromSeconds(2.5) != 2_500_000_000 {
		t.Fatal("FromSeconds")
	}
	if Microseconds(3) != 3000 || Milliseconds(2) != 2_000_000 {
		t.Fatal("Micro/Milliseconds")
	}
}

func TestResourceSubmitAfter(t *testing.T) {
	// Work submitted once its dependency completes, as the plan
	// executor submits it, starts then.
	e := NewEngine()
	r := NewResource(e, "x")
	var start, end Time = -1, -1
	e.Schedule(7, func() { r.Submit(10, doneFunc(func(s, d Time) { start, end = s, d }), 0) })
	e.Run()
	if start != 7 || end != 17 {
		t.Fatalf("start=%d end=%d, want 7 and 17", start, end)
	}
}

func TestResourceFIFO(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "copy")
	var spans [][2]Time
	r.Submit(10, doneFunc(func(s, d Time) { spans = append(spans, [2]Time{s, d}) }), 0)
	r.Submit(5, doneFunc(func(s, d Time) { spans = append(spans, [2]Time{s, d}) }), 0)
	e.Run()
	if spans[0] != [2]Time{0, 10} || spans[1] != [2]Time{10, 15} {
		t.Fatalf("spans %v", spans)
	}
	if r.busyTotal != 15 || len(spans) != 2 {
		t.Fatalf("busy=%d tasks=%d", r.busyTotal, len(spans))
	}
	if u := r.Utilization(); u != 1 {
		t.Fatalf("utilization %v, want 1", u)
	}
}

func TestResourceIdleGap(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "x")
	r.Submit(5, doneFunc(func(s, d Time) {}), 0)
	e.Schedule(20, func() { r.Submit(5, doneFunc(func(s, d Time) {}), 0) })
	e.Run()
	if e.Now() != 25 {
		t.Fatalf("now %d, want 25", e.Now())
	}
	if got := r.Utilization(); got != 0.4 {
		t.Fatalf("utilization %v, want 0.4", got)
	}
}

func TestResourceNegativeDurationPanics(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "x")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.Submit(-1, nil, 0)
}

func TestPoolLeastLoaded(t *testing.T) {
	e := NewEngine()
	p := NewPool(e, "cpu", 2)
	var ends []Time
	for i := 0; i < 4; i++ {
		p.Worker(p.Pick()).Submit(10, doneFunc(func(s, d Time) { ends = append(ends, d) }), 0)
	}
	e.Run()
	// Two workers, four 10ns tasks → makespan 20, not 40.
	if ends[3] != 20 {
		t.Fatalf("last task ended at %d, want 20", ends[3])
	}
	if e.Now() != 20 {
		t.Fatalf("now %d", e.Now())
	}
	if p.Size() != 2 {
		t.Fatal("size")
	}
	if u := p.Utilization(); u != 1 {
		t.Fatalf("pool utilization %v", u)
	}
}

// A pool builds its workers on first use, in index order, and
// dispatches and reports utilization exactly as a fully built pool: a
// run that uses only worker 0 builds only it, the workers never used
// count toward the mean utilization, and least-loaded dispatch takes a
// never-used worker, idle since time zero, before any used one.
func TestPoolBuildsWorkersOnFirstUse(t *testing.T) {
	e := NewEngine()
	p := NewPool(e, "cpu", 4)
	p.SetStretch(func(start, dur Time) Time { return start + 2*dur })
	var end Time
	for i := 0; i < 3; i++ {
		p.Worker(0).Submit(10, endAt(&end), 0)
		e.Run()
	}
	if len(p.workers) != 1 || end != 60 {
		t.Fatalf("worker 0's tasks built %d workers and ended at %d, want 1 and 60 (stretched)", len(p.workers), end)
	}
	if u := p.Utilization(); u != 0.25 {
		t.Fatalf("pool utilization %v, want 0.25", u)
	}
	for want := 1; want < 4; want++ {
		if w := p.Pick(); w != want {
			t.Fatalf("dispatch picked worker %d, want never-used worker %d", w, want)
		}
		p.Worker(p.Pick()).Submit(10, nil, 0)
	}
	if w := p.Pick(); w != 0 || len(p.workers) != 4 || p.Worker(3).Name() != "cpu[3]" {
		t.Fatalf("picked %d of %d built workers, last %q", w, len(p.workers), p.Worker(3).Name())
	}
}

func TestPoolZeroWorkersPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPool(e, "cpu", 0)
}

// doneFunc adapts a plain callback to Completer for tests.
type doneFunc func(start, end Time)

func (f doneFunc) Complete(_ int32, start, end Time) { f(start, end) }

// endAt returns a completer recording the task's end time.
func endAt(at *Time) Completer {
	return doneFunc(func(_, end Time) { *at = end })
}

func TestSharedProcessorSingleTask(t *testing.T) {
	e := NewEngine()
	sp := NewSharedProcessor(e, "gpu", 100) // 100 units/s
	var end Time = -1
	sp.Submit(50, 1000, endAt(&end), 0) // cap clamps to 100
	e.Run()
	if end < 0 {
		t.Fatal("task did not complete")
	}
	// 50 units at 100/s = 0.5s.
	if got := Seconds(end); got < 0.49 || got > 0.51 {
		t.Fatalf("completion at %vs, want 0.5s", got)
	}
}

func TestSharedProcessorDependencies(t *testing.T) {
	// A task submitted once its dependencies have all completed runs
	// from then at its full rate.
	e := NewEngine()
	sp := NewSharedProcessor(e, "gpu", 100)
	var end Time = -1
	left := 2
	ready := func() {
		if left--; left == 0 {
			sp.Submit(100, 100, endAt(&end), 0)
		}
	}
	e.Schedule(FromSeconds(0.5), ready)
	e.Schedule(FromSeconds(1), ready)
	e.Run()
	if got := Seconds(end); got < 1.99 || got > 2.01 {
		t.Fatalf("dependent task finished at %v, want 2s", got)
	}
}

func TestSharedProcessorRateCap(t *testing.T) {
	e := NewEngine()
	sp := NewSharedProcessor(e, "gpu", 100)
	var end Time
	sp.Submit(50, 25, endAt(&end), 0) // capped at a quarter of capacity
	e.Run()
	if got := Seconds(end); got < 1.99 || got > 2.01 {
		t.Fatalf("capped task finished at %vs, want 2s", got)
	}
}

func TestSharedProcessorTwoCappedTasksRunConcurrently(t *testing.T) {
	// Two tasks capped at 50 on a 100-capacity processor: both run at
	// full cap, finishing together — the multi-stream speedup.
	e := NewEngine()
	sp := NewSharedProcessor(e, "gpu", 100)
	var a, b Time
	sp.Submit(50, 50, endAt(&a), 0)
	sp.Submit(50, 50, endAt(&b), 0)
	e.Run()
	ta, tb := Seconds(a), Seconds(b)
	if ta < 0.99 || ta > 1.01 || tb < 0.99 || tb > 1.01 {
		t.Fatalf("tasks finished at %v and %v, want ~1s each", ta, tb)
	}
}

func TestSharedProcessorContention(t *testing.T) {
	// Three tasks capped at 50 on capacity 100: aggregate demand 150
	// exceeds capacity, so each runs at 100/3 and takes 1.5s.
	e := NewEngine()
	sp := NewSharedProcessor(e, "gpu", 100)
	ends := make([]Time, 3)
	for i := range ends {
		sp.Submit(50, 50, endAt(&ends[i]), 0)
	}
	e.Run()
	for _, end := range ends {
		if got := Seconds(end); got < 1.49 || got > 1.51 {
			t.Fatalf("contended task finished at %v, want 1.5s", got)
		}
	}
}

func TestSharedProcessorLateArrivalSharing(t *testing.T) {
	// Task A (work 100, cap 100) runs alone for 0.5s (50 done), then B
	// (work 25, cap 100) arrives; they share 50/50. B finishes at
	// 0.5+0.5=1.0s; A's remaining 50-25=25 then runs at 100 → 1.25s.
	e := NewEngine()
	sp := NewSharedProcessor(e, "gpu", 100)
	var a, b Time
	sp.Submit(100, 100, endAt(&a), 0)
	e.Schedule(FromSeconds(0.5), func() {
		sp.Submit(25, 100, endAt(&b), 0)
	})
	e.Run()
	if got := Seconds(b); got < 0.99 || got > 1.01 {
		t.Fatalf("B finished at %v, want 1.0s", got)
	}
	if got := Seconds(a); got < 1.24 || got > 1.26 {
		t.Fatalf("A finished at %v, want 1.25s", got)
	}
}

func TestSharedProcessorUtilization(t *testing.T) {
	e := NewEngine()
	sp := NewSharedProcessor(e, "gpu", 100)
	done := 0
	sp.Submit(50, 50, doneFunc(func(_, _ Time) { done++ }), 0) // runs 1s at half rate
	e.Run()
	if u := sp.Utilization(); u < 0.49 || u > 0.51 {
		t.Fatalf("utilization %v, want 0.5", u)
	}
	if done != 1 || len(sp.active) != 0 {
		t.Fatal("task accounting wrong")
	}
}

func TestSharedProcessorZeroWork(t *testing.T) {
	e := NewEngine()
	sp := NewSharedProcessor(e, "gpu", 100)
	var end Time = -1
	sp.Submit(0, 100, endAt(&end), 0)
	e.Run()
	if end < 0 {
		t.Fatal("zero-work task must complete")
	}
}

func TestSharedProcessorInvalidArgsPanic(t *testing.T) {
	e := NewEngine()
	sp := NewSharedProcessor(e, "gpu", 100)
	for _, f := range []func(){
		func() { sp.Submit(-1, 100, nil, 0) },
		func() { sp.Submit(1, 0, nil, 0) },
		func() { NewSharedProcessor(e, "bad", 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

// Property: makespan of n equal FIFO tasks equals n*duration regardless
// of how submissions interleave with run steps.
func TestPropertyResourceMakespan(t *testing.T) {
	f := func(n uint8, dur uint16) bool {
		tasks := int(n%20) + 1
		d := Time(dur%1000) + 1
		e := NewEngine()
		r := NewResource(e, "x")
		for i := 0; i < tasks; i++ {
			r.Submit(d, nil, 0)
		}
		e.Run()
		return r.busyUntil == Time(tasks)*d
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: shared-processor completion time for k identical capped
// tasks equals work/min(cap, capacity/k) within rounding.
func TestPropertySharedProcessorSymmetric(t *testing.T) {
	f := func(kRaw uint8, capRaw uint16) bool {
		k := int(kRaw%6) + 1
		cap := float64(capRaw%90) + 10 // 10..99
		e := NewEngine()
		sp := NewSharedProcessor(e, "gpu", 100)
		ends := make([]Time, k)
		for i := range ends {
			sp.Submit(100, cap, endAt(&ends[i]), 0)
		}
		e.Run()
		rate := cap
		if fair := 100.0 / float64(k); fair < rate {
			rate = fair
		}
		want := 100 / rate
		for _, end := range ends {
			got := Seconds(end)
			if got < want*0.999 || got > want*1.001 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestResourceJitterBoundsAndDeterminism(t *testing.T) {
	mk := func(seed uint64, frac float64) []Time {
		e := NewEngine()
		r := NewResource(e, "x")
		r.SetJitter(seed, frac)
		var ends []Time
		for i := 0; i < 20; i++ {
			r.Submit(1000, doneFunc(func(s, d Time) { ends = append(ends, d-s) }), 0)
		}
		e.Run()
		return ends
	}
	a := mk(7, 0.5)
	b := mk(7, 0.5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("seeded jitter must be reproducible")
		}
		// Durations stretch within [1x, 2x] for frac 0.5.
		if a[i] < 1000 || a[i] > 2000 {
			t.Fatalf("jittered duration %d outside [1000, 2000]", a[i])
		}
	}
	// Different seeds differ somewhere.
	c := mk(8, 0.5)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should produce different jitter")
	}
	// Zero jitter is exact.
	for _, d := range mk(1, 0) {
		if d != 1000 {
			t.Fatal("zero jitter must not stretch")
		}
	}
}

func TestResourceNegativeJitterPanics(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "x")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.SetJitter(1, -0.1)
}

func TestRingFIFOAcrossGrowth(t *testing.T) {
	var q Ring[int]
	next, want := 0, 0
	for round := 0; round < 5; round++ {
		for i := 0; i < 3+round*4; i++ { // grows while wrapped
			q.Push(next)
			next++
		}
		for i := 0; i < 2+round*3; i++ {
			if got := q.Pop(); got != want {
				t.Fatalf("popped %d, want %d", got, want)
			}
			want++
		}
	}
	for want < next {
		if got := q.Pop(); got != want {
			t.Fatalf("drained %d, want %d", got, want)
		}
		want++
	}
	defer func() {
		if recover() == nil {
			t.Fatal("popping an empty ring must panic")
		}
	}()
	q.Pop()
}

// Every arrival and completion re-arms the shared processor's one
// completion timer instead of scheduling a fresh event, so the
// completion it replaces never fires, even when its time is unchanged.
func TestSharedProcessorRearmsOneCompletion(t *testing.T) {
	e := NewEngine()
	sp := NewSharedProcessor(e, "gpu", 100)
	var a, b Time
	sp.Submit(50, 25, endAt(&a), 0) // capped: ends at 2s whatever arrives
	e.Schedule(FromSeconds(1), func() { sp.Submit(10, 25, endAt(&b), 1) })
	e.Run()
	if a != FromSeconds(2) || b != FromSeconds(1.4) {
		t.Fatalf("ends %d and %d, want 2s and 1.4s", a, b)
	}
	// Events: the arrival, B's completion at 1.4s and A's at 2s. The
	// arrival and B's completion each re-arm the one timer in place, so
	// no superseded completion fires.
	if got := e.Steps(); got != 3 {
		t.Fatalf("engine ran %d steps, want 3", got)
	}
}

// A timer fires in (time, seq) order among heap events, taking the seq
// of its latest Reset: re-arming it at an unchanged time moves it behind
// the events scheduled in between, exactly as cancelling it and
// scheduling a new event would.
func TestTimerOrdersAsRescheduledEvent(t *testing.T) {
	e := NewEngine()
	var order []string
	tm := e.NewTimer(func() { order = append(order, "timer") })
	e.Reset(tm, 10)
	e.Schedule(10, func() { order = append(order, "a") })
	e.Schedule(5, func() {
		order = append(order, "reset")
		e.Reset(tm, 5) // same instant, fresh seq: now after "a"
	})
	e.Schedule(10, func() { order = append(order, "b") })
	if end := e.Run(); end != 10 {
		t.Fatalf("end time %d, want 10", end)
	}
	if got := strings.Join(order, ","); got != "reset,a,b,timer" {
		t.Fatalf("order %s, want reset,a,b,timer", got)
	}
	if e.Steps() != 4 {
		t.Fatalf("Steps = %d, want 4", e.Steps())
	}
}

// A stopped timer does not fire; one re-armed from its own callback
// fires again.
func TestTimerStopAndRearmFromCallback(t *testing.T) {
	e := NewEngine()
	stopped := e.NewTimer(func() { t.Fatal("stopped timer fired") })
	e.Reset(stopped, 3)
	stopped.Stop()
	var fired []Time
	var tm *Timer
	tm = e.NewTimer(func() {
		if fired = append(fired, e.Now()); len(fired) < 3 {
			e.Reset(tm, 4)
		}
	})
	e.Reset(tm, 2)
	if end := e.Run(); end != 10 {
		t.Fatalf("end time %d, want 10", end)
	}
	if len(fired) != 3 || fired[0] != 2 || fired[1] != 6 || fired[2] != 10 {
		t.Fatalf("fired at %v, want [2 6 10]", fired)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic on negative delay")
			}
		}()
		e.Reset(tm, -1)
	}()
}
