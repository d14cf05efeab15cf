// Package sim is a discrete-event simulation engine with a virtual
// nanosecond clock. It is the substrate on which the hardware models
// (GPU streams, copy engines, CPU worker pools, NVMe queues, network
// links) are built, standing in for the real CUDA/PCIe/NVMe hardware of
// the paper's evaluation platforms.
//
// The engine is deterministic: events scheduled for the same timestamp
// fire in scheduling order, so simulated experiments are exactly
// reproducible — matching the paper's <3% run-to-run variance claim by
// construction.
package sim

import (
	"fmt"
	"time"
)

// Time is a virtual timestamp in nanoseconds since simulation start.
type Time = int64

// event is a scheduled callback.
type event struct {
	at  Time
	seq uint64 // tie-breaker preserving schedule order
	fn  func()
}

// eventHeap is a hand-rolled binary min-heap of event values ordered by
// (at, seq). It replaces container/heap, whose interface would box every
// push/pop through `any` and whose element type would have to be a
// pointer — one heap allocation per admitted event on the engine's
// hottest path. Values stay inline in the backing array; only the
// array's amortized growth allocates (budgeted in HOTPATH.md). Pop order
// is identical to container/heap's: (at, seq) is a strict total order —
// seq is unique — so every correct heap pops the same sequence.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

// push appends ev and restores the heap property.
func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

// pop removes and returns the minimum event.
func (h *eventHeap) pop() event {
	q := *h
	last := len(q) - 1
	top := q[0]
	q[0] = q[last]
	q[last].fn = nil // release the callback for GC
	q = q[:last]
	*h = q
	i := 0
	for {
		small := i
		if l := 2*i + 1; l < len(q) && q.less(l, small) {
			small = l
		}
		if r := 2*i + 2; r < len(q) && q.less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		q[i], q[small] = q[small], q[i]
		i = small
	}
	return top
}

// Engine owns the virtual clock, the pending-event queue and the
// re-armable timers kept beside it.
// It is not safe for concurrent use: the entire simulation runs on the
// calling goroutine, which is what makes it deterministic.
type Engine struct {
	now     Time
	seq     uint64
	pending eventHeap
	timers  []*Timer
	steps   uint64
}

// Timer is one re-armable event kept outside the event heap: a model
// whose next event moves on every change (the shared processor's next
// completion) re-arms its timer in place instead of scheduling a fresh
// event and leaving the old one to fire as a no-op. An engine holds a
// handful of timers at most, one per machine, so Run finds the earliest
// by a scan.
type Timer struct {
	at  Time
	seq uint64 // 0 while disarmed
	fn  func()
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Schedule enqueues fn to run delay nanoseconds from now. A negative
// delay panics: the simulation cannot travel backwards.
//
//vet:hotpath
func (e *Engine) Schedule(delay Time, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", delay))
	}
	e.At(e.now+delay, fn)
}

// At enqueues fn to run at absolute virtual time t (>= Now).
//
//vet:hotpath
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %d before now %d", t, e.now))
	}
	e.seq++
	e.pending.push(event{at: t, seq: e.seq, fn: fn})
}

// NewTimer returns a disarmed timer that runs fn when it fires.
func (e *Engine) NewTimer(fn func()) *Timer {
	t := &Timer{fn: fn}
	e.timers = append(e.timers, t)
	return t
}

// Reset arms t to fire delay nanoseconds from now, replacing any
// pending firing. It takes a fresh seq, so events run in exactly the
// order they would if the old firing were cancelled and a new event
// scheduled. A negative delay panics, as in Schedule.
//
//vet:hotpath
func (e *Engine) Reset(t *Timer, delay Time) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", delay))
	}
	e.seq++
	t.at, t.seq = e.now+delay, e.seq
}

// Stop disarms t; a stopped timer does not fire until it is Reset.
//
//vet:hotpath
func (t *Timer) Stop() { t.seq = 0 }

// Run executes events in (timestamp, seq) order — heap events and armed
// timers alike — until none is pending, returning the final virtual
// time. A timer is disarmed before its callback runs, which may re-arm
// it.
//
//vet:hotpath
func (e *Engine) Run() Time {
	for {
		var next *Timer
		for _, t := range e.timers {
			if t.seq != 0 && (next == nil || t.at < next.at || t.at == next.at && t.seq < next.seq) {
				next = t
			}
		}
		if len(e.pending) > 0 {
			if top := &e.pending[0]; next == nil || top.at < next.at || top.at == next.at && top.seq < next.seq {
				ev := e.pending.pop()
				e.now = ev.at
				e.steps++
				ev.fn()
				continue
			}
		}
		if next == nil {
			return e.now
		}
		e.now = next.at
		e.steps++
		next.seq = 0
		next.fn()
	}
}

// Steps returns the number of events executed so far (a determinism and
// progress diagnostic).
func (e *Engine) Steps() uint64 { return e.steps }

// Seconds converts a virtual duration to float seconds.
func Seconds(d Time) float64 { return float64(d) / float64(time.Second) }

// FromSeconds converts float seconds to a virtual duration.
//
//vet:ignore testonly the tests of sim, baselines and perf write durations with it
func FromSeconds(s float64) Time { return Time(s * float64(time.Second)) }

// Milliseconds converts float milliseconds to a virtual duration.
//
//vet:ignore testonly the tests of sim, hw, plan and core write durations with it
func Milliseconds(ms float64) Time { return Time(ms * 1e6) }
