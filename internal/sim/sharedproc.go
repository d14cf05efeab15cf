package sim

import (
	"fmt"
	"math"
)

// SharedProcessor models a capacity-shared execution engine — the GPU's
// SM array. Concurrently active tasks share the total capacity with a
// per-task rate cap (a kernel launched from one CUDA stream with a small
// batch cannot saturate every SM; its cap encodes the fraction of the
// GPU it can use). This reproduces the paper's multi-stream observation
// (§IV-A, Fig. 11): a second stream speeds training up until the caps
// sum past the machine's capacity.
//
// Rates are assigned by water-filling: spare capacity from capped tasks
// is redistributed to the rest.
type SharedProcessor struct {
	eng        *Engine
	name       string
	capacity   float64 // work units per second (e.g. FLOP/s)
	active     []*spTask
	lastUpdate Time
	gen        uint64  // invalidates stale completion events
	usedInt    float64 // ∫ rate dt, for utilization accounting
	tasks      uint64
}

type spTask struct {
	remaining float64
	maxRate   float64
	rate      float64
	sig       *Signal
	started   Time
	onDone    func(start, end Time)
}

// NewSharedProcessor builds a processor with the given capacity in work
// units per second.
func NewSharedProcessor(eng *Engine, name string, capacity float64) *SharedProcessor {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: shared processor %s needs positive capacity", name))
	}
	return &SharedProcessor{eng: eng, name: name, capacity: capacity}
}

// Capacity returns the processor's total rate.
func (sp *SharedProcessor) Capacity() float64 { return sp.capacity }

// ActiveTasks returns the number of currently running tasks.
func (sp *SharedProcessor) ActiveTasks() int { return len(sp.active) }

// Submit starts a task of the given amount of work once deps fire. The
// task's consumption is capped at maxRate work/s (values above the
// processor capacity are clamped). Returns a Signal fired at task
// completion.
func (sp *SharedProcessor) Submit(work, maxRate float64, deps []*Signal, onDone func(start, end Time)) *Signal {
	if work < 0 {
		panic(fmt.Sprintf("sim: shared processor %s got negative work", sp.name))
	}
	if maxRate <= 0 {
		panic(fmt.Sprintf("sim: shared processor %s got non-positive maxRate", sp.name))
	}
	maxRate = math.Min(maxRate, sp.capacity)
	sig := NewSignal(sp.eng)
	WaitAll(sp.eng, deps, func() {
		sp.advance()
		t := &spTask{remaining: work, maxRate: maxRate, sig: sig, started: sp.eng.Now(), onDone: onDone}
		sp.active = append(sp.active, t)
		sp.tasks++
		sp.reschedule()
	})
	return sig
}

// advance drains elapsed virtual time into remaining-work accounting.
func (sp *SharedProcessor) advance() {
	now := sp.eng.Now()
	elapsed := float64(now-sp.lastUpdate) / 1e9
	if elapsed > 0 {
		for _, t := range sp.active {
			t.remaining -= t.rate * elapsed
			sp.usedInt += t.rate * elapsed
		}
	}
	sp.lastUpdate = now
}

// reschedule recomputes rate allocation, completes finished tasks, and
// schedules the next completion event.
func (sp *SharedProcessor) reschedule() {
	// Complete tasks whose work has drained (within a rate-relative
	// epsilon to absorb float rounding).
	const eps = 1e-9
	kept := sp.active[:0]
	var finished []*spTask
	for _, t := range sp.active {
		if t.remaining <= t.maxRate*eps {
			finished = append(finished, t)
		} else {
			kept = append(kept, t)
		}
	}
	sp.active = kept
	now := sp.eng.Now()
	for _, t := range finished {
		if o := sp.eng.obs; o != nil {
			o.ProcTask(sp.name, t.started, now, len(sp.active))
		}
		if t.onDone != nil {
			t.onDone(t.started, now)
		}
		t.sig.Fire()
	}
	if len(finished) > 0 {
		// Completions may have released waiters that submitted new
		// work synchronously; allocation below covers the final set.
		_ = finished
	}
	sp.waterFill()
	sp.gen++
	gen := sp.gen
	next := sp.nextCompletion()
	if next < 0 {
		return
	}
	sp.eng.Schedule(next, func() {
		if sp.gen != gen {
			return // superseded by a later arrival/completion
		}
		sp.advance()
		sp.reschedule()
	})
}

// waterFill distributes capacity across active tasks subject to their
// caps.
func (sp *SharedProcessor) waterFill() {
	remaining := sp.capacity
	uncapped := append([]*spTask(nil), sp.active...)
	for _, t := range sp.active {
		t.rate = 0
	}
	for len(uncapped) > 0 {
		share := remaining / float64(len(uncapped))
		progressed := false
		next := uncapped[:0]
		for _, t := range uncapped {
			if t.maxRate <= share {
				t.rate = t.maxRate
				remaining -= t.maxRate
				progressed = true
			} else {
				next = append(next, t)
			}
		}
		uncapped = next
		if !progressed {
			for _, t := range uncapped {
				t.rate = share
			}
			break
		}
	}
}

// nextCompletion returns the delay until the earliest task finishes, or
// -1 when no task is active.
func (sp *SharedProcessor) nextCompletion() Time {
	best := Time(-1)
	for _, t := range sp.active {
		if t.rate <= 0 {
			continue
		}
		dt := Time(math.Ceil(t.remaining / t.rate * 1e9))
		if dt < 1 {
			dt = 1
		}
		if best < 0 || dt < best {
			best = dt
		}
	}
	return best
}

// Utilization returns the time-averaged fraction of capacity consumed.
func (sp *SharedProcessor) Utilization() float64 {
	if sp.eng.Now() == 0 {
		return 0
	}
	return sp.usedInt / (sp.capacity * float64(sp.eng.Now()) / 1e9)
}

// Tasks returns the number of tasks ever submitted.
func (sp *SharedProcessor) Tasks() uint64 { return sp.tasks }
