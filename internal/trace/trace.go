// Package trace records execution timelines from the simulated
// hardware — the data behind Figure 4's computation/communication
// overlap plot — and computes overlap statistics. Traces export to
// Chrome trace-event JSON for visual inspection.
package trace

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"

	"stronghold/internal/sim"
)

// Kind classifies a span.
type Kind string

// Span kinds recorded by the engines.
const (
	KindCompute  Kind = "compute"   // GPU kernel execution
	KindH2D      Kind = "h2d"       // host→device transfer
	KindD2H      Kind = "d2h"       // device→host transfer
	KindOptimize Kind = "optimizer" // parameter update
	KindNVMe     Kind = "nvme"      // secondary-storage I/O
	KindNet      Kind = "network"   // cross-node communication
	KindFault    Kind = "fault"     // injected fault / recovery event
)

// Span is one timed event on a named track.
type Span struct {
	Track string // e.g. "gpu", "pcie-h2d", "cpu-opt"
	Name  string // e.g. "fp layer 12"
	Kind  Kind
	Layer int // layer index, -1 when not applicable
	Start sim.Time
	End   sim.Time
}

// Duration returns the span's length.
func (s Span) Duration() sim.Time { return s.End - s.Start }

// Trace accumulates spans.
type Trace struct {
	spans []Span
}

// New returns an empty trace.
func New() *Trace { return &Trace{} }

// Add records a span. End must not precede Start.
func (t *Trace) Add(s Span) {
	if s.End < s.Start {
		panic(fmt.Sprintf("trace: span %q ends (%d) before it starts (%d)", s.Name, s.End, s.Start))
	}
	t.spans = append(t.spans, s)
}

// Grow makes room for n more spans, so a caller that knows how many it
// will add grows the trace once instead of by repeated doubling.
func (t *Trace) Grow(n int) { t.spans = slices.Grow(t.spans, n) }

// Spans returns all recorded spans in insertion order.
func (t *Trace) Spans() []Span { return t.spans }

// Len returns the number of spans.
func (t *Trace) Len() int { return len(t.spans) }

// ByKind returns the spans of one kind.
func (t *Trace) ByKind(k Kind) []Span {
	var out []Span
	for _, s := range t.spans {
		if s.Kind == k {
			out = append(out, s)
		}
	}
	return out
}

// Busy returns the union-length of all spans of the given kinds —
// wall-clock time during which at least one such span was active.
func (t *Trace) Busy(kinds ...Kind) sim.Time {
	return length(normalize(t.intervals(kinds)))
}

// intervals returns the [Start, End] of every span of the given kinds.
func (t *Trace) intervals(kinds []Kind) [][2]sim.Time {
	var iv [][2]sim.Time
	for _, s := range t.spans {
		if slices.Contains(kinds, s.Kind) {
			iv = append(iv, [2]sim.Time{s.Start, s.End})
		}
	}
	return iv
}

// OverlapInPlace returns the fraction of the time covered by intervals
// b that intervals a also cover: |∪a ∩ ∪b| / |∪b|, and 1 when b covers
// no time. With communication as b and computation as a, this is the
// quantity Figure 4 demonstrates and the P1/P2 models maximize. It
// sorts and merges both slices in place instead of copying them, so it
// leaves their contents in no particular order.
func OverlapInPlace(a, b [][2]sim.Time) float64 {
	b = normalizeInPlace(b)
	busyB := length(b)
	if busyB == 0 {
		return 1
	}
	return float64(intersectionLength(normalizeInPlace(a), b)) / float64(busyB)
}

// Makespan returns the end of the last span.
func (t *Trace) Makespan() sim.Time {
	var end sim.Time
	for _, s := range t.spans {
		if s.End > end {
			end = s.End
		}
	}
	return end
}

// length is the total length of normalized intervals.
func length(iv [][2]sim.Time) sim.Time {
	var total sim.Time
	for _, x := range iv {
		total += x[1] - x[0]
	}
	return total
}

// intersectionLength computes |a ∩ b| for normalized a and b.
func intersectionLength(a, b [][2]sim.Time) sim.Time {
	var total sim.Time
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		lo := max(a[i][0], b[j][0])
		hi := min(a[i][1], b[j][1])
		if hi > lo {
			total += hi - lo
		}
		if a[i][1] < b[j][1] {
			i++
		} else {
			j++
		}
	}
	return total
}

// normalize sorts and merges intervals into a new slice. How intervals
// with equal starts are ordered does not change the result.
func normalize(iv [][2]sim.Time) [][2]sim.Time {
	return normalizeInPlace(slices.Clone(iv))
}

// normalizeInPlace is normalize reusing iv's backing array: it sorts iv
// and merges into its prefix.
func normalizeInPlace(iv [][2]sim.Time) [][2]sim.Time {
	if len(iv) == 0 {
		return nil
	}
	slices.SortFunc(iv, func(x, y [2]sim.Time) int { return cmp.Compare(x[0], y[0]) })
	// Merge in place: out never outruns the interval being read.
	out := iv[:1]
	for _, x := range iv[1:] {
		last := &out[len(out)-1]
		if x[0] <= last[1] {
			if x[1] > last[1] {
				last[1] = x[1]
			}
		} else {
			out = append(out, x)
		}
	}
	return out
}

// chromeEvent is one Chrome trace-event entry.
type chromeEvent struct {
	Name  string `json:"name"`
	Cat   string `json:"cat"`
	Phase string `json:"ph"`
	TS    int64  `json:"ts"`  // microseconds
	Dur   int64  `json:"dur"` // microseconds
	PID   int    `json:"pid"`
	TID   int    `json:"tid"`
}

// ChromeJSON serializes the trace in Chrome trace-event format
// (loadable in chrome://tracing or Perfetto).
func (t *Trace) ChromeJSON() ([]byte, error) {
	tracks := map[string]int{}
	events := make([]chromeEvent, 0, len(t.spans))
	for _, s := range t.spans {
		tid, ok := tracks[s.Track]
		if !ok {
			tid = len(tracks)
			tracks[s.Track] = tid
		}
		events = append(events, chromeEvent{
			Name: s.Name, Cat: string(s.Kind), Phase: "X",
			TS: s.Start / 1000, Dur: max(s.Duration()/1000, 1),
			PID: 0, TID: tid,
		})
	}
	return json.MarshalIndent(events, "", " ")
}
