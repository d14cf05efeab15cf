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
	usedInt    float64 // ∫ rate dt, for utilization accounting

	// timer is the engine seq of the one live completion event (0 when
	// none is scheduled). Every arrival or completion schedules a fresh
	// event and supersedes the old one, which still fires — and counts
	// in Engine.Steps — but finds its seq stale and returns. The check
	// names the exact event, not its timestamp: a capped task's
	// completion time often survives an arrival unchanged.
	timer   uint64
	onTimer func() // cached method value of tick

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
	sp.onTimer = sp.tick
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

// tick is the completion event: a superseded one only counts as a step.
//
//vet:hotpath
func (sp *SharedProcessor) tick() {
	if sp.eng.cur != sp.timer {
		return // superseded by a later arrival/completion
	}
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

// reschedule recomputes rate allocation, completes finished tasks, and
// schedules the next completion event.
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
	sp.waterFill()
	sp.timer = 0
	next := sp.nextCompletion()
	if next < 0 {
		return
	}
	sp.eng.Schedule(next, sp.onTimer)
	sp.timer = sp.eng.seq
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
