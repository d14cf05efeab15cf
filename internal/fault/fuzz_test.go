package fault

import (
	"reflect"
	"testing"

	"stronghold/internal/sim"
)

// FuzzFaultPlan throws arbitrary strings at the DSL parser and checks
// the package's core contracts on whatever parses: the canonical form
// round-trips and is a fixed point, two injectors built from the same
// plan answer every query identically (replay determinism), and no
// stretch ever finishes work earlier than its nominal completion.
func FuzzFaultPlan(f *testing.F) {
	seeds := []string{
		"",
		"h2d:stall(at=10ms,dur=5ms)",
		"d2h:slow(at=0s,dur=100ms,every=300ms,count=4,factor=0.25)",
		"nvme:drop(at=20ms,dur=8ms)",
		"cpu:slow(at=0s,dur=1s,every=1s,factor=0.5)",
		"seed=42;h2d:rand(n=6,span=2s,dur=4ms)",
		"seed=7;h2d:rand(n=3,span=1s,dur=2ms,factor=0.1);cpu:stall(at=5ms,dur=1ms,every=50ms,count=10)",
		"h2d:drop(at=0s,dur=3ms,every=9ms);h2d:slow(at=1ms,dur=2ms,factor=0.125)",
		"seed=18446744073709551615;d2h:rand(n=256,span=59m,dur=1h)",
		"h2d:stall(at=0s,dur=1ns,every=2ns)",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := ParsePlan(src)
		if err != nil {
			return // invalid plans must only error, never panic
		}
		canon := p.String()
		p2, err := ParsePlan(canon)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not reparse: %v", canon, src, err)
		}
		if !reflect.DeepEqual(p, p2) {
			t.Fatalf("canonical round trip diverged:\n  %+v\n  %+v", p, p2)
		}
		if again := p2.String(); again != canon {
			t.Fatalf("canonical form is not a fixed point: %q vs %q", canon, again)
		}
		a, err := NewInjector(p)
		if err != nil {
			t.Fatalf("parsed plan rejected by injector: %v", err)
		}
		b, err := NewInjector(p2)
		if err != nil {
			t.Fatalf("reparsed plan rejected by injector: %v", err)
		}
		if !reflect.DeepEqual(a.Windows(timeCap), b.Windows(timeCap)) {
			t.Fatal("two injectors from one plan expanded different windows")
		}
		state := p.Seed ^ 0xabcdef
		for i := 0; i < 64; i++ {
			at := sim.Time(splitmix64(&state) % uint64(maxSpan))
			dur := sim.Time(splitmix64(&state) % uint64(maxSpan/64))
			for _, tg := range Targets {
				sa, sb := a.Stretch(tg), b.Stretch(tg)
				if (sa == nil) != (sb == nil) {
					t.Fatalf("stretch presence diverged for %s", tg)
				}
				if sa != nil {
					ea, eb := sa(at, dur), sb(at, dur)
					if ea != eb {
						t.Fatalf("stretch(%v,%v) on %s diverged: %v vs %v", at, dur, tg, ea, eb)
					}
					if ea < at+dur {
						t.Fatalf("stretch(%v,%v) on %s finished early at %v", at, dur, tg, ea)
					}
				}
				ua, ha := a.DropUntil(tg, at)
				ub, hb := b.DropUntil(tg, at)
				if ua != ub || ha != hb {
					t.Fatalf("DropUntil(%s,%v) diverged: (%v,%v) vs (%v,%v)", tg, at, ua, ha, ub, hb)
				}
				if ha && ua <= at {
					t.Fatalf("DropUntil(%s,%v) returned non-future end %v", tg, at, ua)
				}
			}
		}
	})
}
