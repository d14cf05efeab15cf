package sim

import (
	"math"
	"testing"
)

// smArray is what FuzzSharedProcessor drives: the re-armed
// SharedProcessor or its supersede-and-fire oracle.
type smArray interface {
	Submit(work, maxRate float64, c Completer, tag int32)
	Utilization() float64
}

// spDone is one completion as a Completer receives it.
type spDone struct {
	tag        int32
	start, end Time
}

// spArrival is one decoded task arrival.
type spArrival struct {
	at        Time
	work, cap float64
	resubmit  int // completions that submit a follow-up task synchronously
}

// decodeArrivals turns fuzz bytes into at most 64 arrivals, four bytes
// each: the gap since the previous arrival (a quarter land on the same
// instant), the work (zero included), the cap (from 1/16 of capacity to
// past it, so sets of tasks both fit under and saturate the array), and
// how many completions in the task's chain resubmit synchronously.
func decodeArrivals(capacity float64, data []byte) []spArrival {
	var out []spArrival
	var at Time
	for len(data) >= 4 && len(out) < 64 {
		gap, work, cap, chain := data[0], data[1], data[2], data[3]
		data = data[4:]
		if gap%4 != 0 {
			at += Time(gap) * 7_000_003
		}
		out = append(out, spArrival{at: at, work: float64(work) * 0.37,
			cap: capacity * float64(cap%20+1) / 16, resubmit: int(chain % 3)})
	}
	return out
}

// spRecorder records completions and resubmits each chain's follow-ups
// from inside Complete, re-entering the processor.
type spRecorder struct {
	sp   smArray
	arr  []spArrival
	left []int // follow-ups still to submit, per arrival
	log  []spDone
}

func (r *spRecorder) Complete(tag int32, start, end Time) {
	r.log = append(r.log, spDone{tag, start, end})
	i := int(tag) % len(r.arr)
	if r.left[i] > 0 {
		r.left[i]--
		a := r.arr[i]
		r.sp.Submit(a.work/2+1, a.cap, r, tag+int32(len(r.arr)))
	}
}

// smRun is what one play of the arrivals leaves behind.
type smRun struct {
	log   []spDone
	used  float64 // ∫ rate dt
	util  float64
	end   Time // the clock when Run returned
	steps uint64
}

// runSM plays arrivals on a fresh engine through the processor mk
// builds.
func runSM(capacity float64, arr []spArrival, mk func(*Engine, float64) smArray) smRun {
	e := NewEngine()
	r := &spRecorder{sp: mk(e, capacity), arr: arr, left: make([]int, len(arr))}
	for i, a := range arr {
		i, a := i, a
		r.left[i] = a.resubmit
		e.At(a.at, func() { r.sp.Submit(a.work, a.cap, r, int32(i)) })
	}
	out := smRun{end: e.Run(), util: r.sp.Utilization(), steps: e.Steps(), log: r.log}
	switch sp := r.sp.(type) {
	case *SharedProcessor:
		out.used = sp.usedInt
	case *oracleProcessor:
		out.used = sp.usedInt
	}
	return out
}

// FuzzSharedProcessor holds the re-armed SharedProcessor, with its fused
// rates pass, to the supersede-and-fire oracle: the same (tag, start,
// end) completion stream, the same integrated work, and the same
// utilization. The step count may differ, and only downward — the
// superseded events no longer fire. So may the clock Run ends on, in
// one way: the oracle's last event can be a superseded tick a few
// nanoseconds past the last completion (its ceil-rounded time outlived
// the live one's), which moved its clock and so its Utilization; the
// re-armed processor ends on the last live event.
func FuzzSharedProcessor(f *testing.F) {
	f.Add(uint16(99), []byte{0, 135, 3, 0, 4, 27, 3, 1})                            // the re-arm test's shape
	f.Add(uint16(99), []byte{0, 50, 19, 0, 0, 50, 19, 0, 0, 50, 19, 0})             // saturating, same instant
	f.Add(uint16(999), []byte{1, 200, 2, 2, 0, 10, 5, 1, 3, 0, 7, 0, 2, 90, 15, 2}) // mixed, zero work, resubmits
	f.Add(uint16(7), []byte{5, 255, 0, 0, 8, 255, 0, 2, 0, 255, 0, 1, 9, 1, 0, 0})  // small caps, all fit
	f.Fuzz(func(t *testing.T, capRaw uint16, data []byte) {
		capacity := float64(capRaw%1000) + 1
		arr := decodeArrivals(capacity, data)
		got := runSM(capacity, arr, func(e *Engine, c float64) smArray {
			return NewSharedProcessor(e, "gpu", c)
		})
		want := runSM(capacity, arr, func(e *Engine, c float64) smArray {
			return newOracleProcessor(e, c)
		})
		if len(got.log) != len(want.log) {
			t.Fatalf("%d completions, oracle %d", len(got.log), len(want.log))
		}
		for i := range got.log {
			if got.log[i] != want.log[i] {
				t.Fatalf("completion %d: %+v, oracle %+v", i, got.log[i], want.log[i])
			}
		}
		if !sameFloat(got.used, want.used) {
			t.Fatalf("integrated work %v, oracle %v", got.used, want.used)
		}
		if got.steps > want.steps {
			t.Fatalf("%d steps, oracle %d", got.steps, want.steps)
		}
		// The last live event is the last arrival or completion.
		var last Time
		if len(arr) > 0 {
			last = arr[len(arr)-1].at
		}
		for _, d := range got.log {
			last = max(last, d.end)
		}
		switch {
		case got.end != last:
			t.Fatalf("run ended at %d, last arrival or completion at %d", got.end, last)
		case want.end < got.end:
			t.Fatalf("run ended at %d, oracle at %d", got.end, want.end)
		case want.end == got.end && !sameFloat(got.util, want.util):
			t.Fatalf("utilization %v, oracle %v", got.util, want.util)
		}
	})
}

// sameFloat is bitwise float equality, NaN included.
func sameFloat(a, b float64) bool {
	return a == b || math.IsNaN(a) && math.IsNaN(b)
}
