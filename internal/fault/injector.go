package fault

import (
	"math"
	"sort"

	"stronghold/internal/sim"
)

// timeCap saturates all virtual-time arithmetic: far beyond any
// simulated run, yet small enough that downstream additions cannot
// overflow int64.
const timeCap = sim.Time(math.MaxInt64 / 4)

// maxSegments bounds the piecewise integration of one operation across
// fault windows. Past the cap the remaining work completes at nominal
// rate — a deterministic, conservative fallback that keeps adversarial
// (fuzzed) plans from looping forever.
const maxSegments = 4096

// maxTraceWindows bounds how many fault windows Windows materializes
// for trace rendering.
const maxTraceWindows = 4096

// window is one concrete degradation interval [Start, End).
type window struct {
	start, end sim.Time
	factor     float64 // effective rate: 0 = stall, (0,1) = slow
	drop       bool    // blackout: issued work fails instead of slowing
}

// cycle is an unbounded periodic window (Count == 0 rules): occurrence
// k covers [start + k·period, start + k·period + dur).
type cycle struct {
	start, dur, period sim.Time
	factor             float64
	drop               bool
}

// timeline holds every degradation applying to one target.
type timeline struct {
	windows []window // sorted by start
	cycles  []cycle
	hasRate bool // any non-drop entries (stretch is meaningful)
	hasDrop bool
}

// Injector compiles a Plan into per-target timelines that answer
// analytical queries — when is the target dropped, and how long does a
// given amount of work really take — without adding engine events.
type Injector struct {
	lines map[Target]*timeline
}

// NewInjector validates the plan and expands it: one-shot and
// count-bounded periodic rules become concrete windows, unbounded
// periodic rules stay symbolic cycles, and rand rules are drawn from a
// SplitMix64 stream keyed by (plan seed, rule index) so the expansion
// is a pure function of the plan value.
func NewInjector(p *Plan) (*Injector, error) {
	if p == nil {
		p = &Plan{}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	in := &Injector{lines: make(map[Target]*timeline)}
	for idx, r := range p.Rules {
		tl := in.lines[r.Target]
		if tl == nil {
			tl = &timeline{}
			in.lines[r.Target] = tl
		}
		switch {
		case r.Kind == Rand:
			state := p.Seed ^ (uint64(idx)+1)*0x9e3779b97f4a7c15
			factor := r.Factor // 0 = stall windows
			for i := 0; i < r.N; i++ {
				start := sim.Time(splitmix64(&state) % uint64(r.Span))
				dur := r.Dur/2 + sim.Time(splitmix64(&state)%uint64(r.Dur))
				tl.windows = append(tl.windows, window{start: start, end: satAdd(start, dur), factor: factor})
			}
			tl.hasRate = true
		case r.Every == 0: // one-shot
			tl.add(window{start: r.At, end: satAdd(r.At, r.Dur), factor: ruleFactor(r), drop: r.Kind == Drop})
		case r.Count > 0: // bounded periodic
			for i := 0; i < r.Count; i++ {
				start := satAdd(r.At, sim.Time(i)*r.Every)
				tl.add(window{start: start, end: satAdd(start, r.Dur), factor: ruleFactor(r), drop: r.Kind == Drop})
			}
		default: // unbounded periodic
			tl.cycles = append(tl.cycles, cycle{start: r.At, dur: r.Dur, period: r.Every, factor: ruleFactor(r), drop: r.Kind == Drop})
			if r.Kind == Drop {
				tl.hasDrop = true
			} else {
				tl.hasRate = true
			}
		}
	}
	for _, tl := range in.lines {
		sort.SliceStable(tl.windows, func(i, j int) bool {
			a, b := tl.windows[i], tl.windows[j]
			if a.start != b.start {
				return a.start < b.start
			}
			return a.end < b.end
		})
	}
	return in, nil
}

func ruleFactor(r Rule) float64 {
	if r.Kind == Slow {
		return r.Factor
	}
	return 0 // stall; drop windows ignore factor
}

func (tl *timeline) add(w window) {
	tl.windows = append(tl.windows, w)
	if w.drop {
		tl.hasDrop = true
	} else {
		tl.hasRate = true
	}
}

// satAdd adds two virtual times, saturating at timeCap.
func satAdd(a, b sim.Time) sim.Time {
	if a > timeCap {
		a = timeCap
	}
	if b > timeCap-a {
		return timeCap
	}
	return a + b
}

// rateAt returns the target's effective rate at t: the minimum factor
// over all active windows (1 when none, 0 when stalled). Drop windows
// are skipped unless includeDrops — then they count as stalls, for
// resources whose clients have no retry path.
//
//vet:hotpath
func (tl *timeline) rateAt(t sim.Time, includeDrops bool) float64 {
	rate := 1.0
	for _, w := range tl.windows {
		if (w.drop && !includeDrops) || t < w.start {
			continue
		}
		f := w.factor
		if w.drop {
			f = 0
		}
		if t < w.end && f < rate {
			rate = f
		}
	}
	for _, c := range tl.cycles {
		if (c.drop && !includeDrops) || t < c.start {
			continue
		}
		f := c.factor
		if c.drop {
			f = 0
		}
		if (t-c.start)%c.period < c.dur && f < rate {
			rate = f
		}
	}
	return rate
}

// nextBoundaryAfter returns the earliest window edge strictly after t,
// or false when no relevant boundary remains. The consider closure is
// called locally and never handed off, so it stays on the stack — the
// hotalloc escape judgment verifies exactly that.
//
//vet:hotpath
func (tl *timeline) nextBoundaryAfter(t sim.Time, includeDrops bool) (sim.Time, bool) {
	best := sim.Time(math.MaxInt64)
	consider := func(b sim.Time) {
		if b > t && b < best {
			best = b
		}
	}
	for _, w := range tl.windows {
		if w.drop && !includeDrops {
			continue
		}
		consider(w.start)
		consider(w.end)
	}
	for _, c := range tl.cycles {
		if c.drop && !includeDrops {
			continue
		}
		if t < c.start {
			consider(c.start)
			continue
		}
		base := c.start + (t-c.start)/c.period*c.period
		consider(satAdd(base, c.dur))
		consider(satAdd(base, c.period))
		consider(satAdd(base, c.period+c.dur))
	}
	if best == sim.Time(math.MaxInt64) {
		return 0, false
	}
	return best, true
}

// stretch answers: work that nominally takes `work` starting at
// `start` — when does it actually finish under this timeline? It
// integrates progress piecewise at the active rate; stalls contribute
// nothing until their window closes. The result is never earlier than
// the nominal completion.
//
//vet:hotpath
func (tl *timeline) stretch(start, work sim.Time, includeDrops bool) sim.Time {
	if work < 0 {
		work = 0
	}
	t := start
	remaining := float64(work)
	for seg := 0; seg < maxSegments && remaining > 0.5; seg++ {
		r := tl.rateAt(t, includeDrops)
		nb, ok := tl.nextBoundaryAfter(t, includeDrops)
		if r <= 0 {
			if !ok {
				break // defensive: endless stall is unconstructible
			}
			t = nb
			continue
		}
		if !ok {
			t = satAdd(t, sim.Time(remaining/r))
			remaining = 0
			break
		}
		capacity := float64(nb-t) * r
		if capacity >= remaining {
			t = satAdd(t, sim.Time(remaining/r))
			remaining = 0
		} else {
			remaining -= capacity
			t = nb
		}
	}
	if remaining > 0.5 {
		t = satAdd(t, sim.Time(remaining)) // fallback: finish at nominal rate
	}
	if nominal := satAdd(start, work); t < nominal {
		t = nominal
	}
	return t
}

// dropUntil reports whether t falls inside a drop window, and if so
// when the longest active blackout ends.
//
//vet:hotpath
func (tl *timeline) dropUntil(t sim.Time) (sim.Time, bool) {
	var until sim.Time
	hit := false
	for _, w := range tl.windows {
		if w.drop && t >= w.start && t < w.end && w.end > until {
			until, hit = w.end, true
		}
	}
	for _, c := range tl.cycles {
		if !c.drop || t < c.start {
			continue
		}
		base := c.start + (t-c.start)/c.period*c.period
		if end := satAdd(base, c.dur); t < end && end > until {
			until, hit = end, true
		}
	}
	return until, hit
}

// Stretch returns the completion-time transform for a target, or nil
// when no rule slows or stalls it — the nil lets callers keep the
// clean fast path untouched. Drop windows are not reflected here; the
// caller is expected to handle them through DropUntil and retries.
func (in *Injector) Stretch(tg Target) func(start, dur sim.Time) sim.Time {
	tl := in.lines[tg]
	if tl == nil || !tl.hasRate {
		return nil
	}
	return func(start, dur sim.Time) sim.Time { return tl.stretch(start, dur, false) }
}

// StretchAll is Stretch with drop windows folded in as stalls — for
// resources whose clients have no retry path (NVMe queue, CPU workers),
// so a drop rule still degrades them deterministically.
func (in *Injector) StretchAll(tg Target) func(start, dur sim.Time) sim.Time {
	tl := in.lines[tg]
	if tl == nil || (!tl.hasRate && !tl.hasDrop) {
		return nil
	}
	return func(start, dur sim.Time) sim.Time { return tl.stretch(start, dur, true) }
}

// DropUntil reports whether the target is blacked out at now and when
// the blackout ends; issued work should fail and be retried after.
func (in *Injector) DropUntil(tg Target, now sim.Time) (sim.Time, bool) {
	tl := in.lines[tg]
	if tl == nil || !tl.hasDrop {
		return 0, false
	}
	return tl.dropUntil(now)
}

// Window is one materialized fault interval, for trace rendering.
type Window struct {
	Target     Target
	Start, End sim.Time
	Factor     float64 // 0 = stall (unless Drop)
	Drop       bool
}

// Windows materializes every fault interval intersecting [0, horizon),
// cycles expanded, in deterministic order (canonical target order, then
// start time). The count is capped at an internal bound.
func (in *Injector) Windows(horizon sim.Time) []Window {
	var out []Window
	for _, tg := range Targets {
		tl := in.lines[tg]
		if tl == nil {
			continue
		}
		var ws []Window
		for _, w := range tl.windows {
			if w.start < horizon && w.end > 0 {
				ws = append(ws, Window{Target: tg, Start: w.start, End: minTime(w.end, horizon), Factor: w.factor, Drop: w.drop})
			}
		}
		for _, c := range tl.cycles {
			for k, start := 0, c.start; start < horizon && k < maxTraceWindows; k++ {
				ws = append(ws, Window{Target: tg, Start: start, End: minTime(satAdd(start, c.dur), horizon), Factor: c.factor, Drop: c.drop})
				start = satAdd(start, c.period)
			}
		}
		sort.SliceStable(ws, func(i, j int) bool {
			if ws[i].Start != ws[j].Start {
				return ws[i].Start < ws[j].Start
			}
			return ws[i].End < ws[j].End
		})
		out = append(out, ws...)
		if len(out) >= maxTraceWindows {
			out = out[:maxTraceWindows]
			break
		}
	}
	return out
}

func minTime(a, b sim.Time) sim.Time {
	if a < b {
		return a
	}
	return b
}
