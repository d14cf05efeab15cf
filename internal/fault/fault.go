// Package fault is a seeded, virtual-clock-driven fault injector for
// the simulated machine. STRONGHOLD's §III-D analysis assumes clean
// hardware — dedicated PCIe links, quiet NVMe, an idle CPU socket. The
// deployments it competes with see none of that: shared links stall,
// drives spike, cores disappear to noisy neighbors. A FaultPlan
// describes such degradations as deterministic schedules — one-shot,
// periodic, and seeded-random windows of bandwidth collapse, full
// stalls, or link blackouts — that replay identically from the plan
// value alone: no wall clock, no math/rand global state, every draw
// from a SplitMix64 stream keyed by the plan's seed.
//
// Plans serialize to a compact canonical DSL (see ParsePlan) so they
// travel through CLI flags, CI chaos matrices, and fuzz corpora:
//
//	h2d:stall(at=10ms,dur=5ms)
//	d2h:slow(at=0s,dur=100ms,every=300ms,count=4,factor=0.25)
//	nvme:drop(at=20ms,dur=8ms)
//	cpu:slow(at=0s,dur=1s,factor=0.5)
//	h2d:rand(n=6,span=2s,dur=4ms)
//
// The Injector compiles a plan into per-resource timelines the
// simulation queries analytically — no extra events on the clean path.
package fault

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"stronghold/internal/sim"
)

// Target names a machine resource a rule degrades.
type Target string

// The injectable resources: the two PCIe DMA engines, the NVMe queue,
// and the CPU optimizer pool. Each one is a resource some plan op runs
// on, so a rule against any of them slows a simulated iteration.
const (
	H2D  Target = "h2d"
	D2H  Target = "d2h"
	NVMe Target = "nvme"
	CPU  Target = "cpu"
)

// Targets lists every injectable resource in canonical order.
var Targets = []Target{H2D, D2H, NVMe, CPU}

func (t Target) valid() bool { return slices.Contains(Targets, t) }

// UnknownTargetError rejects a rule whose target is not in Targets.
type UnknownTargetError struct{ Target Target }

func (e *UnknownTargetError) Error() string {
	want := make([]string, len(Targets))
	for i, t := range Targets {
		want[i] = string(t)
	}
	return fmt.Sprintf("unknown target %q (want %s)", string(e.Target), strings.Join(want, ", "))
}

// Kind classifies what a rule does to its target.
type Kind string

const (
	// Stall blocks the resource completely for each window: in-flight
	// and queued work makes no progress until the window closes.
	Stall Kind = "stall"
	// Slow multiplies the resource's effective rate by Factor during
	// each window — bandwidth collapse on a shared link.
	Slow Kind = "slow"
	// Drop fails transfers issued inside each window: the engine's
	// degraded-mode scheduler detects the blackout and retries with
	// virtual-time backoff.
	Drop Kind = "drop"
	// Rand expands, at injector-build time, into N one-shot stall (or,
	// with Factor set, slow) windows drawn from the plan's seeded
	// SplitMix64 stream — starts uniform in [0, Span), durations
	// uniform in [Dur/2, 3·Dur/2).
	Rand Kind = "rand"
)

func (k Kind) valid() bool {
	switch k {
	case Stall, Slow, Drop, Rand:
		return true
	}
	return false
}

// Validation bounds: they keep plans replayable in bounded memory and
// bounded virtual time (fuzzed plans included).
const (
	maxRules   = 64
	maxRepeats = 1024
	maxRandN   = 256
	// maxSpan bounds every timestamp and duration in a plan.
	maxSpan = sim.Time(time.Hour)
	// minFactor keeps slowdowns finite: a link a millionth of its
	// nominal bandwidth is indistinguishable from a bounded stall.
	minFactor = 1e-6
)

// Rule is one deterministic fault schedule against one target.
//
// For Stall/Slow/Drop: the first window opens at At and lasts Dur;
// Every > 0 repeats it with that period (Count occurrences, 0 =
// unbounded). For Rand: N windows are drawn within [0, Span) with mean
// duration Dur (At/Every/Count unused).
type Rule struct {
	Target Target
	Kind   Kind
	At     sim.Time // first window start (virtual ns)
	Dur    sim.Time // window length (virtual ns); mean length for Rand
	Every  sim.Time // repeat period; 0 = one-shot
	Count  int      // occurrences when periodic; 0 = unbounded
	Factor float64  // rate multiplier in [minFactor, 1) for Slow (and optionally Rand)
	N      int      // Rand: number of windows
	Span   sim.Time // Rand: window starts drawn in [0, Span)
}

// Plan is a replayable fault schedule: the value alone determines every
// injected fault, byte for byte, run after run.
type Plan struct {
	// Seed keys the SplitMix64 stream Rand rules draw from.
	Seed uint64
	// Rules apply independently; overlapping slow/stall windows on one
	// target compose by taking the slowest active rate.
	Rules []Rule
}

// Empty reports whether the plan injects nothing. A nil or empty plan
// is the zero-overhead guarantee: the engine treats both identically
// and keeps the clean path byte-for-byte unchanged.
func (p *Plan) Empty() bool { return p == nil || len(p.Rules) == 0 }

// Validate checks every rule against the plan bounds.
func (p Plan) Validate() error {
	if len(p.Rules) > maxRules {
		return fmt.Errorf("fault: plan has %d rules, max %d", len(p.Rules), maxRules)
	}
	for i, r := range p.Rules {
		if err := r.validate(); err != nil {
			return fmt.Errorf("fault: rule %d (%s): %w", i, r, err)
		}
	}
	return nil
}

func (r Rule) validate() error {
	if !r.Target.valid() {
		return &UnknownTargetError{Target: r.Target}
	}
	if !r.Kind.valid() {
		return fmt.Errorf("unknown kind %q", string(r.Kind))
	}
	durOK := func(d sim.Time, name string, allowZero bool) error {
		if d < 0 || d > maxSpan {
			return fmt.Errorf("%s %v outside [0, %v]", name, time.Duration(d), time.Duration(maxSpan))
		}
		if d == 0 && !allowZero {
			return fmt.Errorf("%s must be positive", name)
		}
		return nil
	}
	factorOK := func() error {
		if r.Factor < minFactor || r.Factor >= 1 {
			return fmt.Errorf("factor %v outside [%g, 1)", r.Factor, minFactor)
		}
		return nil
	}
	if r.Kind == Rand {
		if r.At != 0 || r.Every != 0 || r.Count != 0 {
			return fmt.Errorf("rand rules take n/span/dur only")
		}
		if r.N < 1 || r.N > maxRandN {
			return fmt.Errorf("n %d outside [1, %d]", r.N, maxRandN)
		}
		if err := durOK(r.Span, "span", false); err != nil {
			return err
		}
		if err := durOK(r.Dur, "dur", false); err != nil {
			return err
		}
		if r.Factor != 0 {
			return factorOK()
		}
		return nil
	}
	if r.N != 0 || r.Span != 0 {
		return fmt.Errorf("n/span are rand-only parameters")
	}
	if err := durOK(r.At, "at", true); err != nil {
		return err
	}
	if err := durOK(r.Dur, "dur", false); err != nil {
		return err
	}
	if r.Every != 0 {
		if err := durOK(r.Every, "every", false); err != nil {
			return err
		}
		// A stall or blackout covering its whole period would freeze
		// the resource forever; a permanent slowdown is legal.
		if r.Kind == Slow {
			if r.Dur > r.Every {
				return fmt.Errorf("dur %v exceeds period %v", time.Duration(r.Dur), time.Duration(r.Every))
			}
		} else if r.Dur >= r.Every {
			return fmt.Errorf("%s dur %v must be shorter than period %v", r.Kind, time.Duration(r.Dur), time.Duration(r.Every))
		}
	}
	if r.Count != 0 && (r.Count < 0 || r.Count > maxRepeats || r.Every == 0) {
		return fmt.Errorf("count %d needs every>0 and must be in [1, %d]", r.Count, maxRepeats)
	}
	switch r.Kind {
	case Slow:
		return factorOK()
	default:
		if r.Factor != 0 {
			return fmt.Errorf("factor is slow/rand-only")
		}
	}
	return nil
}

// String renders the canonical DSL form: ParsePlan(p.String()) yields a
// plan equal to p, and String is a fixed point of that round trip.
func (p Plan) String() string {
	var b strings.Builder
	if p.Seed != 0 {
		fmt.Fprintf(&b, "seed=%d", p.Seed)
	}
	for _, r := range p.Rules {
		if b.Len() > 0 {
			b.WriteByte(';')
		}
		b.WriteString(r.String())
	}
	return b.String()
}

// String renders one rule in canonical parameter order.
func (r Rule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:%s(", r.Target, r.Kind)
	if r.Kind == Rand {
		fmt.Fprintf(&b, "n=%d,span=%s,dur=%s", r.N, fmtDur(r.Span), fmtDur(r.Dur))
		if r.Factor != 0 {
			fmt.Fprintf(&b, ",factor=%s", fmtFloat(r.Factor))
		}
	} else {
		fmt.Fprintf(&b, "at=%s,dur=%s", fmtDur(r.At), fmtDur(r.Dur))
		if r.Every != 0 {
			fmt.Fprintf(&b, ",every=%s", fmtDur(r.Every))
		}
		if r.Count != 0 {
			fmt.Fprintf(&b, ",count=%d", r.Count)
		}
		if r.Kind == Slow {
			fmt.Fprintf(&b, ",factor=%s", fmtFloat(r.Factor))
		}
	}
	b.WriteByte(')')
	return b.String()
}

func fmtDur(d sim.Time) string { return time.Duration(d).String() }

func fmtFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// splitmix64 advances the state and returns the next draw — the same
// generator the simulator's jitter uses, so one algorithm underlies
// every sanctioned source of randomness.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
