package trace

import (
	"encoding/json"
	"slices"
	"testing"
	"testing/quick"

	"stronghold/internal/sim"
)

func span(k Kind, start, end sim.Time) Span {
	return Span{Track: string(k), Name: "x", Kind: k, Layer: -1, Start: start, End: end}
}

func TestAddAndQuery(t *testing.T) {
	tr := New()
	tr.Add(span(KindCompute, 0, 10))
	tr.Add(span(KindH2D, 5, 15))
	if tr.Len() != 2 || len(tr.Spans()) != 2 {
		t.Fatal("span accounting wrong")
	}
	if got := tr.ByKind(KindCompute); len(got) != 1 || got[0].Duration() != 10 {
		t.Fatal("ByKind wrong")
	}
	if tr.Makespan() != 15 {
		t.Fatalf("makespan %d", tr.Makespan())
	}
}

func TestAddInvertedSpanPanics(t *testing.T) {
	tr := New()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tr.Add(span(KindCompute, 10, 5))
}

func TestBusyUnion(t *testing.T) {
	tr := New()
	tr.Add(span(KindCompute, 0, 10))
	tr.Add(span(KindCompute, 5, 12))  // overlaps previous
	tr.Add(span(KindCompute, 20, 25)) // disjoint
	if got := tr.Busy(KindCompute); got != 17 {
		t.Fatalf("busy = %d, want 17", got)
	}
	if tr.Busy(KindNVMe) != 0 {
		t.Fatal("no NVMe spans recorded")
	}
}

func TestOverlapFractionFullyHidden(t *testing.T) {
	// Communication entirely inside computation → fraction 1.
	tr := New()
	tr.Add(span(KindCompute, 0, 100))
	tr.Add(span(KindH2D, 10, 40))
	tr.Add(span(KindD2H, 50, 70))
	got := overlapFraction(tr, []Kind{KindCompute}, []Kind{KindH2D, KindD2H})
	if got != 1 {
		t.Fatalf("overlap = %v, want 1", got)
	}
}

func TestOverlapFractionExposed(t *testing.T) {
	// Communication half inside, half outside computation.
	tr := New()
	tr.Add(span(KindCompute, 0, 50))
	tr.Add(span(KindH2D, 25, 75)) // 25 hidden, 25 exposed
	got := overlapFraction(tr, []Kind{KindCompute}, []Kind{KindH2D})
	if got != 0.5 {
		t.Fatalf("overlap = %v, want 0.5", got)
	}
}

func TestOverlapFractionNoComm(t *testing.T) {
	tr := New()
	tr.Add(span(KindCompute, 0, 50))
	if got := overlapFraction(tr, []Kind{KindCompute}, []Kind{KindH2D}); got != 1 {
		t.Fatalf("no communication should report full overlap, got %v", got)
	}
}

func TestChromeJSON(t *testing.T) {
	tr := New()
	tr.Add(Span{Track: "gpu", Name: "fp layer 0", Kind: KindCompute, Start: 0, End: 2_000_000})
	tr.Add(Span{Track: "pcie", Name: "prefetch 1", Kind: KindH2D, Start: 500_000, End: 1_500_000})
	raw, err := tr.ChromeJSON()
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(events) != 2 {
		t.Fatalf("got %d events", len(events))
	}
	if events[0]["ph"] != "X" || events[0]["dur"].(float64) != 2000 {
		t.Fatalf("bad event %v", events[0])
	}
	// Different tracks get different tids.
	if events[0]["tid"] == events[1]["tid"] {
		t.Fatal("tracks must map to distinct tids")
	}
}

// Property: Busy of a set of spans never exceeds makespan and never
// falls below the longest single span.
func TestPropertyBusyBounds(t *testing.T) {
	f := func(starts []uint16) bool {
		tr := New()
		var longest sim.Time
		for i, s := range starts {
			if i >= 12 {
				break
			}
			st := sim.Time(s)
			d := sim.Time(s%97) + 1
			tr.Add(span(KindCompute, st, st+d))
			if d > longest {
				longest = d
			}
		}
		if tr.Len() == 0 {
			return true
		}
		busy := tr.Busy(KindCompute)
		return busy >= longest && busy <= tr.Makespan()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: overlap fraction is always in [0, 1].
func TestPropertyOverlapInRange(t *testing.T) {
	f := func(a, b []uint16) bool {
		tr := New()
		for i, s := range a {
			if i >= 8 {
				break
			}
			tr.Add(span(KindCompute, sim.Time(s), sim.Time(s)+sim.Time(s%31)+1))
		}
		for i, s := range b {
			if i >= 8 {
				break
			}
			tr.Add(span(KindH2D, sim.Time(s), sim.Time(s)+sim.Time(s%17)+1))
		}
		got := overlapFraction(tr, []Kind{KindCompute}, []Kind{KindH2D})
		return got >= 0 && got <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Overlap is OverlapInPlace on copies: it reorders neither slice.
func Overlap(a, b [][2]sim.Time) float64 {
	return OverlapInPlace(slices.Clone(a), slices.Clone(b))
}

// overlapFraction is the fraction of the time of tr's spans of kinds b
// hidden under its spans of kinds a.
func overlapFraction(tr *Trace, a, b []Kind) float64 {
	return Overlap(tr.intervals(a), tr.intervals(b))
}

// Property: Overlap copies before it merges, so its inputs keep their
// order and contents, and OverlapInPlace — which merges the caller's
// slices instead — returns the same fraction.
func TestPropertyOverlapInPlaceMatches(t *testing.T) {
	ivs := func(raw []uint16) [][2]sim.Time {
		var iv [][2]sim.Time
		for _, s := range raw {
			iv = append(iv, [2]sim.Time{sim.Time(s), sim.Time(s) + sim.Time(s%29)})
		}
		return iv
	}
	f := func(ra, rb []uint16) bool {
		a, b := ivs(ra), ivs(rb)
		a0, b0 := slices.Clone(a), slices.Clone(b)
		got := Overlap(a, b)
		if !slices.Equal(a, a0) || !slices.Equal(b, b0) {
			return false
		}
		return OverlapInPlace(a, b) == got
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
