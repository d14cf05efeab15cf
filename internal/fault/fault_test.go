package fault

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"stronghold/internal/sim"
)

func ms(n int64) sim.Time { return sim.Time(n) * sim.Time(time.Millisecond) }

func mustParse(t *testing.T, s string) *Plan {
	t.Helper()
	p, err := ParsePlan(s)
	if err != nil {
		t.Fatalf("ParsePlan(%q): %v", s, err)
	}
	return p
}

func TestParseRoundTrip(t *testing.T) {
	cases := []string{
		"",
		"h2d:stall(at=10ms,dur=5ms)",
		"d2h:slow(at=0s,dur=100ms,every=300ms,count=4,factor=0.25)",
		"nvme:drop(at=20ms,dur=8ms)",
		"cpu:slow(at=0s,dur=1s,every=1s,factor=0.5)",
		"seed=42;h2d:rand(n=6,span=2s,dur=4ms)",
		"seed=7;h2d:rand(n=3,span=1s,dur=2ms,factor=0.1);cpu:stall(at=5ms,dur=1ms,every=50ms,count=10)",
		"h2d:slow(at=1ms,dur=2ms,factor=0.125);d2h:drop(at=0s,dur=3ms,every=9ms)",
	}
	for _, src := range cases {
		p := mustParse(t, src)
		canon := p.String()
		p2 := mustParse(t, canon)
		if !reflect.DeepEqual(p, p2) {
			t.Errorf("round trip of %q diverged:\n  %+v\n  %+v", src, p, p2)
		}
		if again := p2.String(); again != canon {
			t.Errorf("canonical form of %q not a fixed point: %q vs %q", src, canon, again)
		}
	}
}

func TestParseWhitespaceAndErrors(t *testing.T) {
	p := mustParse(t, " seed=3 ; h2d:stall( at=1ms , dur=2ms ) ")
	if p.Seed != 3 || len(p.Rules) != 1 || p.Rules[0].At != ms(1) {
		t.Fatalf("whitespace-tolerant parse failed: %+v", p)
	}
	bad := []string{
		"h2d",                                          // no kind
		"h2d:stall",                                    // no params
		"h2d:stall()",                                  // empty params
		"gpu:stall(at=0s,dur=1ms)",                     // unknown target
		"h2d:melt(at=0s,dur=1ms)",                      // unknown kind
		"h2d:stall(at=0s,dur=0s)",                      // zero duration
		"h2d:stall(at=0s,dur=-1ms)",                    // negative duration
		"h2d:stall(at=0s,dur=2h)",                      // over maxSpan
		"h2d:stall(at=0s,dur=5ms,every=5ms)",           // stall covers period
		"h2d:drop(at=0s,dur=5ms,every=5ms)",            // drop covers period
		"h2d:slow(at=0s,dur=6ms,every=5ms,factor=0.5)", // slow exceeds period
		"h2d:slow(at=0s,dur=1ms,factor=1.5)",           // factor >= 1
		"h2d:slow(at=0s,dur=1ms,factor=0)",             // factor below floor
		"h2d:stall(at=0s,dur=1ms,factor=0.5)",          // factor on stall
		"h2d:stall(at=0s,dur=1ms,count=3)",             // count without every
		"h2d:rand(n=0,span=1s,dur=1ms)",                // n too small
		"h2d:rand(n=500,span=1s,dur=1ms)",              // n too large
		"h2d:rand(n=2,span=1s,dur=1ms,at=1ms)",         // at on rand
		"h2d:stall(at=0s,dur=1ms,n=2)",                 // n on windowed
		"h2d:stall(at=0s,dur=1ms,bogus=3)",             // unknown key
		"h2d:stall(at=0s,dur=1ms);",                    // trailing empty rule
		"seed=1;seed=2;h2d:stall(at=0s,dur=1ms)",       // duplicate seed
		"h2d:stall(at=0s,dur=1ms);seed=1",              // seed not first
		"seed=banana;h2d:stall(at=0s,dur=1ms)",         // bad seed
	}
	for _, src := range bad {
		if _, err := ParsePlan(src); err == nil {
			t.Errorf("ParsePlan(%q) accepted an invalid plan", src)
		}
	}
}

// A target no plan op runs on is rejected with a typed error that
// lists the valid targets, built from Targets.
func TestUnknownTargetListsTargets(t *testing.T) {
	_, err := ParsePlan("nic:stall(at=0s,dur=1ms)")
	var ute *UnknownTargetError
	if !errors.As(err, &ute) || ute.Target != "nic" {
		t.Fatalf("ParsePlan(nic) = %v, want an UnknownTargetError", err)
	}
	if want := `unknown target "nic" (want h2d, d2h, nvme, cpu)`; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not contain %q", err, want)
	}
}

func TestEmptyPlan(t *testing.T) {
	var nilPlan *Plan
	if !nilPlan.Empty() {
		t.Error("nil plan must be Empty")
	}
	p := mustParse(t, "")
	if !p.Empty() || p.String() != "" {
		t.Errorf("empty string must parse to the empty plan, got %+v", p)
	}
	in, err := NewInjector(nil)
	if err != nil {
		t.Fatalf("NewInjector(nil): %v", err)
	}
	for _, tg := range Targets {
		if in.Stretch(tg) != nil {
			t.Errorf("empty injector returned a stretch for %s", tg)
		}
		if _, hit := in.DropUntil(tg, 0); hit {
			t.Errorf("empty injector reported a drop for %s", tg)
		}
	}
	if w := in.Windows(timeCap); len(w) != 0 {
		t.Errorf("empty injector produced %d windows", len(w))
	}
}

func TestStretchStall(t *testing.T) {
	in, err := NewInjector(mustParse(t, "h2d:stall(at=10ms,dur=5ms)"))
	if err != nil {
		t.Fatal(err)
	}
	st := in.Stretch(H2D)
	if st == nil {
		t.Fatal("stall rule must produce a stretch")
	}
	// Entirely before the stall: unchanged.
	if got := st(0, ms(5)); got != ms(5) {
		t.Errorf("pre-stall copy: got %v want %v", got, ms(5))
	}
	// Crossing the stall: pays the full 5ms pause.
	if got := st(ms(8), ms(4)); got != ms(17) {
		t.Errorf("copy across stall: got %v want %v", got, ms(17))
	}
	// Starting inside the stall: waits for the window to close.
	if got := st(ms(12), ms(1)); got != ms(16) {
		t.Errorf("copy inside stall: got %v want %v", got, ms(16))
	}
	// Other targets unaffected.
	if in.Stretch(D2H) != nil {
		t.Error("stall on h2d leaked to d2h")
	}
}

func TestStretchSlow(t *testing.T) {
	in, err := NewInjector(mustParse(t, "d2h:slow(at=10ms,dur=10ms,factor=0.5)"))
	if err != nil {
		t.Fatal(err)
	}
	st := in.Stretch(D2H)
	// 4ms of work at half rate takes 8ms.
	if got := st(ms(10), ms(4)); got != ms(18) {
		t.Errorf("slowed copy: got %v want %v", got, ms(18))
	}
	// 2ms at full rate + remaining 3ms at half rate = 2 + 6 = 8ms elapsed.
	if got := st(ms(8), ms(5)); got != ms(16) {
		t.Errorf("partially slowed copy: got %v want %v", got, ms(16))
	}
	// Work outlasting the window resumes at full rate after it.
	// Start 10ms: 10ms window does 5ms of work, remaining 7ms after 20ms.
	if got := st(ms(10), ms(12)); got != ms(27) {
		t.Errorf("copy outlasting window: got %v want %v", got, ms(27))
	}
}

func TestStretchPeriodicCycle(t *testing.T) {
	// Unbounded: 1ms stall every 10ms starting at 0.
	in, err := NewInjector(mustParse(t, "nvme:stall(at=0s,dur=1ms,every=10ms)"))
	if err != nil {
		t.Fatal(err)
	}
	st := in.Stretch(NVMe)
	// Starting at 1ms, 9ms of work runs clean until 10ms... no: 1..10 is
	// clean (9ms), so it finishes exactly at the next window edge.
	if got := st(ms(1), ms(9)); got != ms(10) {
		t.Errorf("clean gap copy: got %v want %v", got, ms(10))
	}
	// Starting at 0 inside the stall: +1ms wait, then 9ms clean -> 10ms,
	// which lands on the next stall edge exactly; work is done by then.
	if got := st(0, ms(9)); got != ms(10) {
		t.Errorf("cycle-start copy: got %v want %v", got, ms(10))
	}
	// 19ms of work from 1ms: crosses stalls at 10 and 20.
	// 1->10 clean (9), stall ->11, 11->20 clean (9 more, 18 total), stall ->21, 1 left -> 22.
	if got := st(ms(1), ms(19)); got != ms(22) {
		t.Errorf("multi-cycle copy: got %v want %v", got, ms(22))
	}
	// Far in the future the cycle still applies (modular arithmetic).
	if got := st(ms(1000), ms(1)); got != ms(1002) {
		t.Errorf("late copy hitting cycle: got %v want %v", got, ms(1002))
	}
}

func TestStretchOverlapTakesSlowest(t *testing.T) {
	in, err := NewInjector(mustParse(t, "h2d:slow(at=0s,dur=20ms,factor=0.5);h2d:slow(at=5ms,dur=5ms,factor=0.25)"))
	if err != nil {
		t.Fatal(err)
	}
	st := in.Stretch(H2D)
	// From 5ms, rate is 0.25 for 5ms (1.25ms work), then 0.5.
	// 2ms of work: 1.25 by 10ms, remaining 0.75 at 0.5 -> +1.5ms = 11.5ms.
	want := ms(10) + ms(3)/2
	if got := st(ms(5), ms(2)); got != want {
		t.Errorf("overlapping slows: got %v want %v", got, want)
	}
}

func TestDropUntil(t *testing.T) {
	in, err := NewInjector(mustParse(t, "h2d:drop(at=10ms,dur=5ms);nvme:drop(at=0s,dur=2ms,every=10ms)"))
	if err != nil {
		t.Fatal(err)
	}
	if _, hit := in.DropUntil(H2D, ms(9)); hit {
		t.Error("drop reported before window")
	}
	if until, hit := in.DropUntil(H2D, ms(10)); !hit || until != ms(15) {
		t.Errorf("drop at window start: got (%v,%v)", until, hit)
	}
	if until, hit := in.DropUntil(H2D, ms(14)); !hit || until != ms(15) {
		t.Errorf("drop near window end: got (%v,%v)", until, hit)
	}
	if _, hit := in.DropUntil(H2D, ms(15)); hit {
		t.Error("drop reported at exclusive window end")
	}
	// Periodic drop cycles repeat forever.
	if until, hit := in.DropUntil(NVMe, ms(41)); !hit || until != ms(42) {
		t.Errorf("cyclic drop: got (%v,%v)", until, hit)
	}
	if _, hit := in.DropUntil(NVMe, ms(45)); hit {
		t.Error("cyclic drop reported in clean gap")
	}
	// Drop rules do not stretch.
	if in.Stretch(H2D) != nil {
		t.Error("pure drop rule produced a stretch")
	}
}

func TestRandDeterministicAndSeedSensitive(t *testing.T) {
	const src = "seed=99;h2d:rand(n=8,span=2s,dur=4ms)"
	a, err := NewInjector(mustParse(t, src))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewInjector(mustParse(t, src))
	if err != nil {
		t.Fatal(err)
	}
	wa, wb := a.Windows(timeCap), b.Windows(timeCap)
	if !reflect.DeepEqual(wa, wb) {
		t.Fatal("same plan produced different rand windows")
	}
	if len(wa) != 8 {
		t.Fatalf("expected 8 rand windows, got %d", len(wa))
	}
	for _, w := range wa {
		if w.Start < 0 || w.Start >= sim.Time(2*time.Second) {
			t.Errorf("rand start %v outside span", w.Start)
		}
		if d := w.End - w.Start; d < ms(2) || d >= ms(6) {
			t.Errorf("rand duration %v outside [dur/2, 3·dur/2)", d)
		}
	}
	other := mustParse(t, "seed=100;h2d:rand(n=8,span=2s,dur=4ms)")
	c, err := NewInjector(other)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(wa, c.Windows(timeCap)) {
		t.Error("different seeds produced identical rand windows")
	}
}

func TestStretchNeverEarly(t *testing.T) {
	in, err := NewInjector(mustParse(t, "seed=5;cpu:rand(n=16,span=100ms,dur=3ms,factor=0.2);cpu:slow(at=0s,dur=2ms,every=7ms,factor=0.5)"))
	if err != nil {
		t.Fatal(err)
	}
	st := in.Stretch(CPU)
	state := uint64(0xfeed)
	for i := 0; i < 2000; i++ {
		start := sim.Time(splitmix64(&state) % uint64(ms(200)))
		dur := sim.Time(splitmix64(&state) % uint64(ms(10)))
		if got := st(start, dur); got < start+dur {
			t.Fatalf("stretch(%v, %v) = %v finished early", start, dur, got)
		}
	}
}

func TestWindowsDeterministicOrder(t *testing.T) {
	in, err := NewInjector(mustParse(t, "cpu:stall(at=5ms,dur=1ms);h2d:slow(at=0s,dur=2ms,every=10ms,count=3,factor=0.5);h2d:drop(at=1ms,dur=1ms)"))
	if err != nil {
		t.Fatal(err)
	}
	ws := in.Windows(ms(100))
	if len(ws) != 5 {
		t.Fatalf("expected 5 windows, got %d: %+v", len(ws), ws)
	}
	// Canonical target order first (h2d before cpu), then start order.
	for i := 1; i < len(ws); i++ {
		if ws[i-1].Target == ws[i].Target && ws[i-1].Start > ws[i].Start {
			t.Fatalf("windows out of order at %d: %+v", i, ws)
		}
	}
	if ws[len(ws)-1].Target != CPU {
		t.Fatalf("cpu window must sort last: %+v", ws)
	}
	// Horizon clips cycle expansion.
	if clipped := in.Windows(ms(1)); len(clipped) != 1 {
		t.Fatalf("horizon clipping failed: %+v", clipped)
	}
}

func TestPlanStringParsesEvenWithManyRules(t *testing.T) {
	var parts []string
	for i := 0; i < maxRules; i++ {
		parts = append(parts, "h2d:stall(at=1ms,dur=1ms)")
	}
	if _, err := ParsePlan(strings.Join(parts, ";")); err != nil {
		t.Fatalf("max-size plan rejected: %v", err)
	}
	parts = append(parts, "h2d:stall(at=1ms,dur=1ms)")
	if _, err := ParsePlan(strings.Join(parts, ";")); err == nil {
		t.Fatal("oversized plan accepted")
	}
}
