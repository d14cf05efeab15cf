package core

import (
	"bytes"
	"os"
	"testing"

	"stronghold/internal/fault"
	"stronghold/internal/hw"
	"stronghold/internal/modelcfg"
	"stronghold/internal/perf"
	"stronghold/internal/trace"
)

// runTraced executes one full training simulation and returns the
// result plus the serialized event trace of its final iteration.
func runTraced(t *testing.T, feat Features) (perf.IterationResult, []byte) {
	t.Helper()
	e := NewEngine(perf.NewModel(modelcfg.Config1p7B(), hw.V100Platform()))
	e.Feat = feat
	tr := trace.New()
	res := e.Run(3, tr)
	if res.OOM {
		t.Fatalf("1.7B must fit: %s", res.OOMDetail)
	}
	if tr.Len() == 0 {
		t.Fatal("empty trace")
	}
	raw, err := tr.ChromeJSON()
	if err != nil {
		t.Fatalf("serializing trace: %v", err)
	}
	return res, raw
}

// TestDeterministicTraces is the regression guard for the determinism
// contract the stronghold-vet rules enforce statically: the same
// simulation, run twice, must execute the same number of engine events
// and emit byte-identical traces. It covers the default feature set and
// the multistream path, with and without deterministic transfer jitter.
func TestDeterministicTraces(t *testing.T) {
	cases := []struct {
		name string
		feat Features
	}{
		{"default", DefaultFeatures()},
		{"multistream", Features{ConcurrentOptimizers: true, UserLevelMemMgmt: true, Streams: 2}},
		{"baseline-no-opt", Features{Streams: 1}},
		{"nvme", Features{ConcurrentOptimizers: true, UserLevelMemMgmt: true, Streams: 1, UseNVMe: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res1, trace1 := runTraced(t, tc.feat)
			res2, trace2 := runTraced(t, tc.feat)
			if res1.Steps == 0 {
				t.Fatal("engine reported zero steps")
			}
			if res1.Steps != res2.Steps {
				t.Fatalf("event counts diverge: %d vs %d", res1.Steps, res2.Steps)
			}
			if res1 != res2 {
				t.Fatalf("iteration results diverge:\n  %+v\n  %+v", res1, res2)
			}
			if !bytes.Equal(trace1, trace2) {
				t.Fatalf("event traces diverge (%d vs %d bytes)", len(trace1), len(trace2))
			}
		})
	}
}

// chaosPlans is the fault-plan matrix the determinism contract must
// hold under. CI's chaos job overrides it one plan at a time through
// STRONGHOLD_CHAOS_PLAN.
var chaosPlans = []struct {
	name string
	plan string
}{
	{"stall", "h2d:stall(at=100ms,dur=50ms,every=500ms)"},
	{"bandwidth-collapse", "h2d:slow(at=0s,dur=1s,every=1s,factor=0.15);d2h:slow(at=0s,dur=1s,every=1s,factor=0.15)"},
	{"blackout-retries", "h2d:drop(at=100ms,dur=40ms,every=500ms);d2h:drop(at=300ms,dur=40ms,every=500ms)"},
	{"rand-seeded", "seed=1234;h2d:rand(n=24,span=10s,dur=8ms);nvme:rand(n=8,span=10s,dur=20ms)"},
	{"cpu-core-loss", "cpu:slow(at=0s,dur=2s,every=2s,factor=0.25)"},
	{"kitchen-sink", "seed=9;h2d:slow(at=0s,dur=400ms,every=1s,factor=0.2);d2h:stall(at=250ms,dur=60ms,every=900ms);h2d:drop(at=500ms,dur=30ms,every=700ms);cpu:rand(n=10,span=8s,dur=15ms,factor=0.5)"},
}

// runTracedFaulted is runTraced under a fault plan, with the adaptive
// re-solve optionally frozen.
func runTracedFaulted(t *testing.T, feat Features, plan string, freeze bool) (perf.IterationResult, []byte) {
	t.Helper()
	p, err := fault.ParsePlan(plan)
	if err != nil {
		t.Fatalf("parsing plan %q: %v", plan, err)
	}
	e := NewEngine(perf.NewModel(modelcfg.Config1p7B(), hw.V100Platform()))
	e.Feat = feat
	e.Faults = p
	e.DisableResolve = freeze
	tr := trace.New()
	res := e.Run(3, tr)
	if res.OOM {
		t.Fatalf("1.7B must fit: %s", res.OOMDetail)
	}
	raw, err := tr.ChromeJSON()
	if err != nil {
		t.Fatalf("serializing trace: %v", err)
	}
	return res, raw
}

// TestDeterministicTracesUnderFaults extends the determinism contract
// to degraded mode: any seeded fault plan, replayed, must execute the
// same number of events and emit byte-identical traces — retries,
// deadline misses, window re-solves and all. Setting
// STRONGHOLD_CHAOS_PLAN replaces the built-in matrix with one plan (the
// CI chaos job drives this).
func TestDeterministicTracesUnderFaults(t *testing.T) {
	plans := chaosPlans
	if env := os.Getenv("STRONGHOLD_CHAOS_PLAN"); env != "" {
		plans = []struct {
			name string
			plan string
		}{{"env", env}}
	}
	for _, tc := range plans {
		for _, freeze := range []bool{false, true} {
			name := tc.name
			if freeze {
				name += "-frozen"
			}
			t.Run(name, func(t *testing.T) {
				res1, trace1 := runTracedFaulted(t, DefaultFeatures(), tc.plan, freeze)
				res2, trace2 := runTracedFaulted(t, DefaultFeatures(), tc.plan, freeze)
				if res1.Steps == 0 {
					t.Fatal("engine reported zero steps")
				}
				if res1 != res2 {
					t.Fatalf("iteration results diverge under faults:\n  %+v\n  %+v", res1, res2)
				}
				if !bytes.Equal(trace1, trace2) {
					t.Fatalf("event traces diverge under faults (%d vs %d bytes)", len(trace1), len(trace2))
				}
			})
		}
	}
}

// TestDeterministicTracesWithJitter pins down that even the seeded
// jitter path — deliberate randomness — is run-to-run reproducible.
func TestDeterministicTracesWithJitter(t *testing.T) {
	run := func() (perf.IterationResult, []byte) {
		e := NewEngine(perf.NewModel(modelcfg.Config1p7B(), hw.V100Platform()))
		e.TransferJitter = 0.1
		tr := trace.New()
		res := e.Run(3, tr)
		if res.OOM {
			t.Fatalf("1.7B must fit: %s", res.OOMDetail)
		}
		raw, err := tr.ChromeJSON()
		if err != nil {
			t.Fatalf("serializing trace: %v", err)
		}
		return res, raw
	}
	res1, trace1 := run()
	res2, trace2 := run()
	if res1.Steps != res2.Steps {
		t.Fatalf("event counts diverge under jitter: %d vs %d", res1.Steps, res2.Steps)
	}
	if !bytes.Equal(trace1, trace2) {
		t.Fatal("event traces diverge under seeded jitter")
	}
}
