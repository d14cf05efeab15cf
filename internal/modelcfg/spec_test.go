package modelcfg

import (
	"errors"
	"strconv"
	"strings"
	"testing"
)

// TestConfigSpecCanonicalIdempotent pins the property the serve cache
// key depends on: canonicalization is a fixed point, and Layers wins
// over SizeBillions.
func TestConfigSpecCanonicalIdempotent(t *testing.T) {
	specs := []ConfigSpec{
		{},
		{SizeBillions: 4},
		{Layers: 20},
		{Layers: 20, SizeBillions: 99},
		{SizeBillions: 1.7, Hidden: 4096, BatchSize: 2, ModelParallel: 8},
	}
	for _, s := range specs {
		c1 := s.Canonical()
		if c2 := c1.Canonical(); c1 != c2 {
			t.Errorf("Canonical not idempotent: %+v -> %+v -> %+v", s, c1, c2)
		}
	}
	c := ConfigSpec{Layers: 20, SizeBillions: 99}.Canonical()
	if c.SizeBillions != 0 || c.Layers != 20 {
		t.Errorf("Layers-wins rule not applied: %+v", c)
	}
	if c.Hidden != 2560 || c.BatchSize != 4 || c.ModelParallel != 1 {
		t.Errorf("defaults not applied: %+v", c)
	}
}

// TestConfigSpecResolve checks Resolve against the direct constructors
// and its error paths.
func TestConfigSpecResolve(t *testing.T) {
	got, err := ConfigSpec{Layers: 20, BatchSize: 2}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	want := NewConfig(20, 2560, 16)
	want.BatchSize = 2
	if got != want {
		t.Errorf("Resolve(layers=20) = %+v, want %+v", got, want)
	}

	bySize, err := ConfigSpec{SizeBillions: 4}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if ref := ConfigForSize(4, 2560, 1); bySize != ref {
		t.Errorf("Resolve(size=4) = %+v, want %+v", bySize, ref)
	}

	if _, err := (ConfigSpec{}).Resolve(); err == nil {
		t.Error("empty spec resolved without error")
	}
	if _, err := (ConfigSpec{Layers: -1, SizeBillions: 2}).Resolve(); err == nil {
		t.Error("negative layers resolved without error")
	}
}

// Resolve bounds the depth on both paths: Layers set directly, and the
// depth ConfigForSize derives from SizeBillions.
func TestConfigSpecResolveDepthLimit(t *testing.T) {
	if _, err := (ConfigSpec{Layers: MaxLayers, Hidden: 256}).Resolve(); err != nil {
		t.Errorf("spec at the limit rejected: %v", err)
	}
	for _, s := range []ConfigSpec{
		{Layers: MaxLayers + 1},
		{Layers: 1_000_000, Hidden: 256},
		{SizeBillions: 100, Hidden: 256}, // about 127,000 layers
	} {
		_, err := s.Resolve()
		if !errors.Is(err, ErrTooDeep) {
			t.Errorf("Resolve(%+v) = %v, want ErrTooDeep", s, err)
			continue
		}
		if !strings.Contains(err.Error(), strconv.Itoa(MaxLayers)) {
			t.Errorf("Resolve(%+v): error %q does not name the %d-layer limit", s, err, MaxLayers)
		}
	}
}

// TestMethodSummaries pins the wire form of the registry: one row per
// method in display order, engine names rendered, decision variables
// carried through.
func TestMethodSummaries(t *testing.T) {
	rows := MethodSummaries()
	if len(rows) != len(methods) {
		t.Fatalf("%d summaries, registry has %d rows", len(rows), len(methods))
	}
	for i, row := range rows {
		if row.Key != methods[i].Key {
			t.Errorf("row %d key %q, want %q (display order must hold)", i, row.Key, methods[i].Key)
		}
	}
	byKey := make(map[string]MethodSummary)
	for _, r := range rows {
		byKey[r.Key] = r
	}
	sh := byKey["stronghold"]
	if sh.Engine != "core" || !sh.PlanDriven || !sh.Decisions.Window || !sh.Decisions.OptPlacement {
		t.Errorf("stronghold summary wrong: %+v", sh)
	}
	if z := byKey["zero-3"]; z.Engine != "cluster" || !z.Distributed {
		t.Errorf("zero-3 summary wrong: %+v", z)
	}
	if m := byKey["megatron-lm"]; m.Engine != "baseline" || m.PlanDriven {
		t.Errorf("megatron summary wrong: %+v", m)
	}
}
