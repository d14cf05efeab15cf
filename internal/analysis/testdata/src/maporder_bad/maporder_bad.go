// Package maporder_bad is a fixture: a simulation package whose map
// iterations leak Go's randomized ordering into order-sensitive sinks
// — trace emission, sim event scheduling and allocator traffic —
// directly, through a local helper, and into a canonical String().
package maporder_bad

import (
	"fmt"
	"strings"

	"stronghold/internal/mem"
	"stronghold/internal/sim"
	"stronghold/internal/trace"
)

// EmitDirect writes one span per entry straight from map order.
func EmitDirect(tr *trace.Trace, spans map[int]trace.Span) {
	for _, s := range spans { // want "map iteration order reaches order-sensitive sink trace.Trace.Add"
		tr.Add(s)
	}
}

// emit is the helper that performs the sink for EmitViaHelper.
func emit(tr *trace.Trace, s trace.Span) {
	tr.Add(s)
}

// EmitViaHelper reaches the same sink one call away.
func EmitViaHelper(tr *trace.Trace, spans map[int]trace.Span) {
	for _, s := range spans { // want "map iteration order reaches order-sensitive sink trace.Trace.Add via maporder_bad.emit"
		emit(tr, s)
	}
}

// ScheduleAll turns map order into event order.
func ScheduleAll(eng *sim.Engine, delays map[string]sim.Time) {
	for _, d := range delays { // want "map iteration order reaches order-sensitive sink sim.Engine.Schedule"
		eng.Schedule(d, func() {})
	}
}

// RearmAll re-arms timers in map order: each Reset takes a fresh seq,
// so map order becomes firing order among equal deadlines.
func RearmAll(eng *sim.Engine, timers map[string]*sim.Timer) {
	for _, t := range timers { // want "map iteration order reaches order-sensitive sink sim.Engine.Reset"
		eng.Reset(t, 0)
	}
}

// ReleaseAll frees buffers in map order; the allocator op counters
// land in the iteration result.
func ReleaseAll(pool *mem.RoundRobinPool, held map[int]int) {
	for _, idx := range held { // want "map iteration order reaches order-sensitive sink mem.RoundRobinPool.Release"
		pool.Release(idx)
	}
}

// Schedule is a canonical-form type: String() is its contract.
type Schedule struct {
	Windows map[int]string
}

// String builds the canonical rendering straight from map order.
func (s Schedule) String() string {
	var b strings.Builder
	for layer, w := range s.Windows { // want "map iteration order flows into the canonical maporder_bad.Schedule.String output"
		fmt.Fprintf(&b, "%d:%s;", layer, w)
	}
	return b.String()
}
