package sim

import (
	"fmt"
	"math"
)

// oracleProcessor is the supersede-and-fire SM array the re-armed
// SharedProcessor replaced, kept as its differential oracle: every
// arrival or completion schedules a fresh completion event, the one it
// supersedes still fires and returns on a stale seq, and rates always
// come from the full water-fill. FuzzSharedProcessor requires the two
// to complete the same tasks at the same instants in the same order.
type oracleProcessor struct {
	eng        *Engine
	capacity   float64
	active     []*spTask
	lastUpdate Time
	usedInt    float64
	timer      uint64 // engine seq of the live completion event; 0 when none
}

func newOracleProcessor(eng *Engine, capacity float64) *oracleProcessor {
	return &oracleProcessor{eng: eng, capacity: capacity}
}

func (sp *oracleProcessor) Submit(work, maxRate float64, c Completer, tag int32) {
	if work < 0 || maxRate <= 0 {
		panic(fmt.Sprintf("sim: oracle processor got work %v, maxRate %v", work, maxRate))
	}
	sp.advance()
	sp.active = append(sp.active, &spTask{remaining: work, maxRate: math.Min(maxRate, sp.capacity),
		started: sp.eng.Now(), c: c, tag: tag})
	sp.reschedule()
}

func (sp *oracleProcessor) advance() {
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

func (sp *oracleProcessor) reschedule() {
	const eps = 1e-9
	var kept, finished []*spTask
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
		if t.c != nil {
			t.c.Complete(t.tag, t.started, now)
		}
	}
	sp.waterFill()
	sp.timer = 0
	next := sp.nextCompletion()
	if next < 0 {
		return
	}
	seq := sp.eng.seq + 1 // the seq Schedule is about to take
	sp.eng.Schedule(next, func() {
		if sp.timer != seq {
			return // superseded by a later arrival/completion
		}
		sp.advance()
		sp.reschedule()
	})
	sp.timer = seq
}

func (sp *oracleProcessor) waterFill() {
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

func (sp *oracleProcessor) nextCompletion() Time {
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

func (sp *oracleProcessor) Utilization() float64 {
	if sp.eng.Now() == 0 {
		return 0
	}
	return sp.usedInt / (sp.capacity * float64(sp.eng.Now()) / 1e9)
}
