package workload

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"stronghold"
	"stronghold/internal/modelcfg"
	"stronghold/internal/plan"
	"stronghold/internal/serve"
	"stronghold/internal/serve/backend"
)

// sequence renders the first inputs a workload generates for seed, as
// the load generator would send or run them.
func sequence(t *testing.T, name string, seed uint64) string {
	t.Helper()
	var b strings.Builder
	switch name {
	case SweepScale, SweepSuite:
		newSweep := NewSweepScale
		if name == SweepSuite {
			newSweep = NewSweepSuite
		}
		s, err := newSweep(seed)
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 3; pass++ {
			for _, i := range s.Pass(pass) {
				fmt.Fprintf(&b, "%s|%+v\n", s.Ops[i].Name, s.Ops[i].Sim.Cfg)
			}
		}
	case ServeHot:
		h, err := NewHot(seed)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 500; i++ {
			r := h.Request(i)
			fmt.Fprintf(&b, "%s %s\n", r.Path, r.Body)
		}
	case ServeCold:
		c := NewCold(seed)
		for i := 0; i < 300; i++ {
			r := c.Request(i)
			fmt.Fprintf(&b, "%s %s\n", r.Path, r.Body)
		}
	}
	return b.String()
}

func TestSameSeedSameSequence(t *testing.T) {
	for _, name := range Names {
		t.Run(name, func(t *testing.T) {
			a, again, other := sequence(t, name, 7), sequence(t, name, 7), sequence(t, name, 8)
			if a != again {
				t.Error("seed 7 generated two different sequences")
			}
			if a == other {
				t.Error("seeds 7 and 8 generated the same sequence")
			}
		})
	}
}

func TestHotShareAndSpellings(t *testing.T) {
	h, err := NewHot(3)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(h.Entries); n != hotSolves+hotWhatIfs+hotCapacities {
		t.Fatalf("hot set has %d entries", n)
	}
	for _, e := range h.Entries {
		for i := 1; i < hotSpellings; i++ {
			if bytes.Equal(e.Spellings[0], e.Spellings[i]) {
				t.Errorf("%s spelling %d repeats spelling 0: %s", e.Path, i, e.Spellings[i])
			}
		}
	}
	const n = 100000
	hot := 0
	for i := 0; i < n; i++ {
		if h.Request(i).Hot >= 0 {
			hot++
		}
	}
	if share := float64(hot) / n; math.Abs(share-hotShare) > 0.02 {
		t.Errorf("hot share %.4f, want %.2f ± 0.02", share, hotShare)
	}
}

// TestHotUniqueSolvesNeverRepeat checks the 10% miss traffic: no two
// unique solves share a cache key, none hits the hot set, and each is
// a request the backend answers.
func TestHotUniqueSolvesNeverRepeat(t *testing.T) {
	h, err := NewHot(5)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, e := range h.Entries {
		seen[e.Hash] = true
	}
	for i := 0; i < 20000; i++ {
		r := h.Request(i)
		if r.Hot >= 0 {
			continue
		}
		_, hash, err := Canonical(r.Path, r.Body)
		if err != nil {
			t.Fatalf("request %d %s: %v", i, r.Body, err)
		}
		if seen[hash] {
			t.Fatalf("request %d repeats a cache key: %s", i, r.Body)
		}
		seen[hash] = true
		if i%50 == 0 {
			if _, err := Expected(backend.Sim{}, r.Path, r.Body); err != nil {
				t.Fatalf("request %d %s: backend: %v", i, r.Body, err)
			}
		}
	}
}

// TestColdHasNoRepeats runs the stream past the last distinct capacity
// query and checks that no two requests share a cache key and that
// every deck keeps its mix (capacity slots turning into solves).
func TestColdHasNoRepeats(t *testing.T) {
	c := NewCold(11)
	decks := len(c.combos)/coldCapacities + 20
	seen := make(map[string]int)
	whatifs := len(coldMethods) * coldWhatIfs
	for d := 0; d < decks; d++ {
		counts := make(map[string]int)
		for i := d * ColdDeck; i < (d+1)*ColdDeck; i++ {
			r := c.Request(i)
			counts[r.Path]++
			_, hash, err := Canonical(r.Path, r.Body)
			if err != nil {
				t.Fatalf("request %d %s: %v", i, r.Body, err)
			}
			if j, dup := seen[hash]; dup {
				t.Fatalf("requests %d and %d share a cache key: %s", j, i, r.Body)
			}
			seen[hash] = i
		}
		want := map[string]int{PathWhatIf: whatifs, PathSolve: coldSolves, PathCapacity: coldCapacities}
		if d >= len(c.combos)/coldCapacities {
			want = map[string]int{PathWhatIf: whatifs, PathSolve: coldSolves + coldCapacities}
		}
		if !reflect.DeepEqual(counts, want) {
			t.Fatalf("deck %d mix %v, want %v", d, counts, want)
		}
	}
}

// TestColdBelowCapacity checks every drawn serve-cold size against 0.9x
// its method's capacity, and that the largest drawn what-if per method
// simulates without running out of memory, clean and faulted.
func TestColdBelowCapacity(t *testing.T) {
	c := NewCold(2)
	largest := make(map[string][]byte)
	largestSize := make(map[string]float64)
	for i := 0; i < 20*ColdDeck; i++ {
		r := c.Request(i)
		if r.Path == PathCapacity {
			continue
		}
		canon, _, err := Canonical(r.Path, r.Body)
		if err != nil {
			t.Fatal(err)
		}
		var spec modelcfg.ConfigSpec
		var method string
		switch c := canon.(type) {
		case serve.SolveRequest:
			spec, method = c.Model, c.Method
		case serve.WhatIfRequest:
			spec, method = c.Model, c.Method
		}
		m, err := modelcfg.ParseMethod(method)
		if err != nil {
			t.Fatal(err)
		}
		if limit := coldLimit(m); spec.SizeBillions >= limit || spec.SizeBillions < coldMinBillions {
			t.Errorf("%s %s size %.3f outside [%.1f, %.3f)", r.Path, method, spec.SizeBillions, coldMinBillions, limit)
		}
		if spec.SizeBillions >= 0.9*capacity(m) {
			t.Errorf("%s %s size %.3f not below 0.9x capacity %.3f", r.Path, method, spec.SizeBillions, capacity(m))
		}
		if r.Path == PathWhatIf && spec.SizeBillions > largestSize[method] {
			largestSize[method], largest[method] = spec.SizeBillions, r.Body
		}
	}
	if len(largest) != len(coldMethods) {
		t.Fatalf("what-ifs cover %d methods, want %d", len(largest), len(coldMethods))
	}
	for _, m := range coldMethods {
		body := largest[modelcfg.MethodKey(m)]
		if _, err := Expected(backend.Sim{}, PathWhatIf, body); err != nil {
			t.Errorf("largest %s what-if %s: %v", modelcfg.MethodKey(m), body, err)
		}
	}
}

// TestSuiteMirrorsBench checks that each sweep-suite op's staged Sim
// runs the simulation the bench suite scenario runs.
func TestSuiteMirrorsBench(t *testing.T) {
	s, err := NewSweepSuite(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range s.Ops {
		out, err := op.Call()
		if err != nil {
			t.Fatal(err)
		}
		if !op.Mirrors(out, op.Sim.Run()) {
			t.Errorf("%s: staged run differs from the suite's", op.Name)
		}
		if op.Sim.Core() {
			if err := op.Sim.Solve(); err != nil {
				t.Errorf("%s: solve: %v", op.Name, err)
			}
			p, err := op.Sim.Build()
			if err != nil {
				t.Fatalf("%s: build: %v", op.Name, err)
			}
			if err := plan.Validate(p); err != nil {
				t.Errorf("%s: validate: %v", op.Name, err)
			}
		} else if _, err := op.Sim.Build(); err != nil {
			t.Errorf("%s: plan: %v", op.Name, err)
		}
	}
}

func TestScaleMirrorsSimulate(t *testing.T) {
	s, err := NewSweepScale(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Ops) != len(scaleDepths)*scalePerDepth {
		t.Fatalf("%d ops", len(s.Ops))
	}
	nvme := 0
	for _, op := range s.Ops {
		if op.Sim.Method == stronghold.StrongholdNVMe {
			nvme++
		}
	}
	if nvme != len(scaleDepths) {
		t.Errorf("%d NVMe configs, want one per depth", nvme)
	}
	// The two smallest configs (one per tier) are enough to check the
	// mirror; the deep ones take a second each.
	for _, op := range s.Ops[:2] {
		out, err := op.Call()
		if err != nil {
			t.Fatal(err)
		}
		if out.Sim.OOM {
			t.Fatalf("%s: OOM: %s", op.Name, out.Sim.Detail)
		}
		if !op.Mirrors(out, op.Sim.Run()) {
			t.Errorf("%s: staged run differs from stronghold.Simulate", op.Name)
		}
	}
}
