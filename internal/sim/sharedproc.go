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
// is redistributed to the rest. The one pending completion is an engine
// Timer, re-armed in place on every arrival and completion.
type SharedProcessor struct {
	eng        *Engine
	name       string
	capacity   float64 // work units per second (e.g. FLOP/s)
	active     []*spTask
	lastUpdate Time
	usedInt    float64 // ∫ rate dt, for utilization accounting

	// timer fires tick at the earliest completion. Every arrival or
	// completion re-arms it with a fresh seq even when a capped task's
	// completion time survives unchanged, so the completion runs after
	// the events scheduled before the change, as a new event would.
	timer *Timer

	// free recycles finished tasks; finished and uncapped are scratch
	// for reschedule and waterFill.
	free     []*spTask
	finished []*spTask
	uncapped []*spTask
}

type spTask struct {
	remaining float64
	maxRate   float64
	rate      float64
	started   Time
	c         Completer
	tag       int32
}

// NewSharedProcessor builds a processor with the given capacity in work
// units per second.
func NewSharedProcessor(eng *Engine, name string, capacity float64) *SharedProcessor {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: shared processor %s needs positive capacity", name))
	}
	sp := &SharedProcessor{eng: eng, name: name, capacity: capacity}
	sp.timer = eng.NewTimer(sp.tick)
	return sp
}

// Name returns the processor's label.
func (sp *SharedProcessor) Name() string { return sp.name }

// Submit starts a task of the given amount of work now. The task's
// consumption is capped at maxRate work/s (values above the processor
// capacity are clamped). At completion c — which may be nil — receives
// Complete(tag, start, end).
//
//vet:hotpath
func (sp *SharedProcessor) Submit(work, maxRate float64, c Completer, tag int32) {
	if work < 0 {
		panic(fmt.Sprintf("sim: shared processor %s got negative work", sp.name))
	}
	if maxRate <= 0 {
		panic(fmt.Sprintf("sim: shared processor %s got non-positive maxRate", sp.name))
	}
	maxRate = math.Min(maxRate, sp.capacity)
	sp.advance()
	var t *spTask
	if n := len(sp.free); n > 0 {
		t = sp.free[n-1]
		sp.free = sp.free[:n-1]
	} else {
		t = new(spTask)
	}
	*t = spTask{remaining: work, maxRate: maxRate, started: sp.eng.Now(), c: c, tag: tag}
	sp.active = append(sp.active, t)
	sp.reschedule()
}

// tick is the completion event.
//
//vet:hotpath
func (sp *SharedProcessor) tick() {
	sp.advance()
	sp.reschedule()
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

// reschedule completes finished tasks, recomputes rate allocation, and
// re-arms the timer for the next completion.
func (sp *SharedProcessor) reschedule() {
	// Complete tasks whose work has drained (within a rate-relative
	// epsilon to absorb float rounding).
	const eps = 1e-9
	kept := sp.active[:0]
	// A completer may submit again synchronously, re-entering here, so
	// the scratch list is detached while this call walks it.
	finished := sp.finished[:0]
	sp.finished = nil
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
		c, tag, started := t.c, t.tag, t.started
		t.c = nil
		sp.free = append(sp.free, t)
		if c != nil {
			c.Complete(tag, started, now)
		}
	}
	clear(finished)
	sp.finished = finished[:0]
	if next := sp.rates(); next >= 0 {
		sp.eng.Reset(sp.timer, next)
	} else {
		sp.timer.Stop()
	}
}

// rates sets every active task's rate and returns the delay until the
// earliest completion, or -1 when no task is active. While each cap fits
// under an equal share of the capacity — the usual case: kernels cap at
// a fraction of the SM array and few run at once — every task runs at
// its cap, which is water-filling's first and only round, and one pass
// sets the rates and finds the completion. Otherwise it falls back to
// the full waterFill and nextCompletion.
//
//vet:hotpath
func (sp *SharedProcessor) rates() Time {
	share := sp.capacity / float64(len(sp.active))
	best := Time(-1)
	for _, t := range sp.active {
		// The comparison waterFill makes, negated as written so a NaN
		// cap also falls back.
		if !(t.maxRate <= share) {
			sp.waterFill()
			return sp.nextCompletion()
		}
		t.rate = t.maxRate
		if dt := t.completionDelay(); best < 0 || dt < best {
			best = dt
		}
	}
	return best
}

// waterFill distributes capacity across active tasks subject to their
// caps.
func (sp *SharedProcessor) waterFill() {
	remaining := sp.capacity
	sp.uncapped = append(sp.uncapped[:0], sp.active...)
	uncapped := sp.uncapped
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
		if dt := t.completionDelay(); best < 0 || dt < best {
			best = dt
		}
	}
	return best
}

// completionDelay is the time until t drains at its current rate, at
// least 1ns.
func (t *spTask) completionDelay() Time {
	return max(Time(math.Ceil(t.remaining/t.rate*1e9)), 1)
}

// Utilization returns the time-averaged fraction of capacity consumed.
func (sp *SharedProcessor) Utilization() float64 {
	if sp.eng.Now() == 0 {
		return 0
	}
	return sp.usedInt / (sp.capacity * float64(sp.eng.Now()) / 1e9)
}
