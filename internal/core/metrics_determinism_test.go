package core

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stronghold/internal/fault"
	"stronghold/internal/hw"
	"stronghold/internal/metrics"
	"stronghold/internal/modelcfg"
	"stronghold/internal/perf"
	"stronghold/internal/trace"
)

// metricsMatrix is the feature/fault matrix the metrics determinism
// contract is proven over: every scheduling path the engine has,
// including seeded jitter and every chaos plan.
func metricsMatrix() []struct {
	name   string
	feat   Features
	jitter float64
	plan   string
} {
	cases := []struct {
		name   string
		feat   Features
		jitter float64
		plan   string
	}{
		{name: "default", feat: DefaultFeatures()},
		{name: "multistream", feat: Features{ConcurrentOptimizers: true, UserLevelMemMgmt: true, Streams: 2}},
		{name: "baseline-no-opt", feat: Features{Streams: 1}},
		{name: "nvme", feat: Features{ConcurrentOptimizers: true, UserLevelMemMgmt: true, Streams: 1, UseNVMe: true}},
		{name: "jittered", feat: DefaultFeatures(), jitter: 0.1},
	}
	for _, cp := range chaosPlans {
		cases = append(cases, struct {
			name   string
			feat   Features
			jitter float64
			plan   string
		}{name: "chaos-" + cp.name, feat: DefaultFeatures(), plan: cp.plan})
	}
	return cases
}

// runCollected runs one full simulation with a metrics collector
// installed and returns the result, the trace bytes, and the
// concatenated canonical exports (Prometheus + JSON + CSV).
func runCollected(t *testing.T, feat Features, jitter float64, plan string) (perf.IterationResult, []byte, []byte) {
	t.Helper()
	e := NewEngine(perf.NewModel(modelcfg.Config1p7B(), hw.V100Platform()))
	e.Feat = feat
	e.TransferJitter = jitter
	if plan != "" {
		p, err := fault.ParsePlan(plan)
		if err != nil {
			t.Fatalf("parsing plan %q: %v", plan, err)
		}
		e.Faults = p
	}
	mc := metrics.New()
	e.Metrics = mc
	tr := trace.New()
	res := e.Run(3, tr)
	if res.OOM {
		t.Fatalf("1.7B must fit: %s", res.OOMDetail)
	}
	raw, err := tr.ChromeJSON()
	if err != nil {
		t.Fatalf("serializing trace: %v", err)
	}
	var exp bytes.Buffer
	if err := mc.WritePrometheus(&exp); err != nil {
		t.Fatalf("prometheus export: %v", err)
	}
	if err := mc.WriteJSON(&exp); err != nil {
		t.Fatalf("json export: %v", err)
	}
	if err := mc.WriteCSV(&exp); err != nil {
		t.Fatalf("csv export: %v", err)
	}
	return res, raw, exp.Bytes()
}

// TestDeterministicMetricsSnapshots extends the determinism contract to
// the metrics subsystem: the same simulation run twice with a collector
// must produce byte-identical Prometheus, JSON and CSV exports (and
// identical traces and results) across the full feature matrix,
// including the jittered and chaos configurations.
func TestDeterministicMetricsSnapshots(t *testing.T) {
	for _, tc := range metricsMatrix() {
		t.Run(tc.name, func(t *testing.T) {
			res1, trace1, exp1 := runCollected(t, tc.feat, tc.jitter, tc.plan)
			res2, trace2, exp2 := runCollected(t, tc.feat, tc.jitter, tc.plan)
			if res1.MetricSamples == 0 {
				t.Fatal("collector recorded zero timeline samples")
			}
			if res1 != res2 {
				t.Fatalf("iteration results diverge with metrics on:\n  %+v\n  %+v", res1, res2)
			}
			if !bytes.Equal(trace1, trace2) {
				t.Fatal("event traces diverge with metrics on")
			}
			if !bytes.Equal(exp1, exp2) {
				t.Fatalf("metrics exports diverge (%d vs %d bytes)", len(exp1), len(exp2))
			}
		})
	}
}

// TestNilCollectorZeroOverhead proves the nil-collector contract: a run
// with metrics off emits a trace byte-identical to a run with metrics
// on — installing a collector changes observation, never the schedule.
// Only MetricSamples may differ.
func TestNilCollectorZeroOverhead(t *testing.T) {
	cases := []struct {
		name string
		feat Features
	}{
		{"default", DefaultFeatures()},
		{"nvme", Features{ConcurrentOptimizers: true, UserLevelMemMgmt: true, Streams: 1, UseNVMe: true}},
		{"baseline-no-opt", Features{Streams: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resOff, traceOff := runTraced(t, tc.feat)
			resOn, traceOn, _ := runCollected(t, tc.feat, 0, "")
			if !bytes.Equal(traceOff, traceOn) {
				t.Fatalf("trace changed when metrics enabled (%d vs %d bytes)", len(traceOff), len(traceOn))
			}
			if resOff.MetricSamples != 0 {
				t.Fatalf("metrics-off run reported %d samples", resOff.MetricSamples)
			}
			// Normalize the observation-only field, then the results must
			// match exactly: same timings, steps, utilization and counters.
			resOn.MetricSamples = 0
			if resOff != resOn {
				t.Fatalf("result changed when metrics enabled:\n  off %+v\n  on  %+v", resOff, resOn)
			}
		})
	}
}

// TestMetricsDigests pins every metricsMatrix config's collector output
// — the SHA-256 of its Prometheus, JSON and CSV exports back to back,
// and its MetricSamples — to testdata/metrics_digests.golden. It is the
// oracle for how the collector is fed: any change to which events it
// sees, in which order, moves a digest. Regenerate with
// `go test ./internal/core -run TestMetricsDigests -update` only for a
// deliberate instrumentation change.
func TestMetricsDigests(t *testing.T) {
	var b strings.Builder
	for _, tc := range metricsMatrix() {
		res, _, exp := runCollected(t, tc.feat, tc.jitter, tc.plan)
		fmt.Fprintf(&b, "%s %x samples=%d\n", tc.name, sha256.Sum256(exp), res.MetricSamples)
	}
	got := b.String()
	path := filepath.Join("testdata", "metrics_digests.golden")
	// The -update flag is registered by the package's external golden
	// test, which shares this test binary.
	if f := flag.Lookup("update"); f != nil && f.Value.String() == "true" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("metrics digests drifted from %s:\n got:\n%s want:\n%s", path, got, want)
	}
}

// TestResultsIgnoreTrace requires a run's result, Overlap included, to
// be the same with and without a trace attached, across the metrics
// matrix: the trace only receives spans derived from the executor's
// record, and every result field comes from that record or the
// resources.
func TestResultsIgnoreTrace(t *testing.T) {
	for _, tc := range metricsMatrix() {
		t.Run(tc.name, func(t *testing.T) {
			run := func(tr *trace.Trace) perf.IterationResult {
				e := NewEngine(perf.NewModel(modelcfg.Config1p7B(), hw.V100Platform()))
				e.Feat = tc.feat
				e.TransferJitter = tc.jitter
				if tc.plan != "" {
					p, err := fault.ParsePlan(tc.plan)
					if err != nil {
						t.Fatal(err)
					}
					e.Faults = p
				}
				return e.Run(3, tr)
			}
			bare, traced := run(nil), run(trace.New())
			if bare != traced {
				t.Fatalf("result depends on the trace:\n  nil   %+v\n  trace %+v", bare, traced)
			}
			if bare.Overlap <= 0 {
				t.Fatalf("overlap %v without a trace", bare.Overlap)
			}
		})
	}
}
