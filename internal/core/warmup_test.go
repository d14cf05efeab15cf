package core

import (
	"bytes"
	"testing"

	"stronghold/internal/fault"
	"stronghold/internal/hw"
	"stronghold/internal/modelcfg"
	"stronghold/internal/perf"
	"stronghold/internal/trace"
)

// TestWarmupRecordsChangeNothing is the oracle for running the warm-up
// iterations unrecorded (plan.ExecuteUnrecorded): across the metrics
// matrix, under every chaos plan and over an eight-iteration run whose
// window grows and shrinks back, a run that keeps only the records its
// spans and Overlap read must give the same result, Steps and Overlap
// included, and the same Chrome trace as one that records every
// iteration (recordWarmup). Collector runs record every iteration
// either way; TestMetricsDigests pins them.
func TestWarmupRecordsChangeNothing(t *testing.T) {
	type warmupCase struct {
		name   string
		feat   Features
		jitter float64
		plan   string
		iters  int
	}
	var cases []warmupCase
	for _, tc := range metricsMatrix() {
		cases = append(cases, warmupCase{tc.name, tc.feat, tc.jitter, tc.plan, 3})
	}
	// PCIe slows tenfold for ten seconds only: the window grows, then
	// re-solves back down once the link recovers.
	cases = append(cases, warmupCase{name: "grow-shrink", feat: DefaultFeatures(), iters: 8,
		plan: "h2d:slow(at=0s,dur=1s,every=1s,count=10,factor=0.1);d2h:slow(at=0s,dur=1s,every=1s,count=10,factor=0.1)"})

	var patched, retried bool
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(recordWarmup bool) (perf.IterationResult, *iterRun, []byte) {
				e := NewEngine(perf.NewModel(modelcfg.Config1p7B(), hw.V100Platform()))
				e.Feat = tc.feat
				e.TransferJitter = tc.jitter
				e.recordWarmup = recordWarmup
				if tc.plan != "" {
					p, err := fault.ParsePlan(tc.plan)
					if err != nil {
						t.Fatal(err)
					}
					e.Faults = p
				}
				tr := trace.New()
				res, r := e.runSim(tc.iters, tr)
				if res.OOM {
					t.Fatalf("1.7B must fit: %s", res.OOMDetail)
				}
				raw, err := tr.ChromeJSON()
				if err != nil {
					t.Fatal(err)
				}
				return res, r, raw
			}
			res, r, raw := run(false)
			all, rAll, rawAll := run(true)
			if res != all {
				t.Fatalf("result depends on the warm-up records:\n  skipped  %+v\n  recorded %+v", res, all)
			}
			if !bytes.Equal(raw, rawAll) {
				t.Fatalf("trace depends on the warm-up records (%d vs %d bytes)", len(raw), len(rawAll))
			}
			// Unrecorded completions take no event number.
			if r.st.Events() >= rAll.st.Events() {
				t.Fatalf("warm-up iterations were recorded: %d events numbered, %d with every record", r.st.Events(), rAll.st.Events())
			}
			patched = patched || len(r.patches) > 0
			retried = retried || res.Retries > 0
		})
	}
	if !patched || !retried {
		t.Fatalf("matrix lost its coverage: resize patches %t, retried copies %t", patched, retried)
	}
}
