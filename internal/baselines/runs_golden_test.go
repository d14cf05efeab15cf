package baselines_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stronghold/internal/baselines"
	"stronghold/internal/expt"
	"stronghold/internal/fault"
	"stronghold/internal/modelcfg"
	"stronghold/internal/trace"
)

// goldenDropPlan blacks out the H2D link for 20 ms of every 100 ms:
// short enough that every transfer issued inside a window gets through
// once it ends.
const goldenDropPlan = "h2d:drop(at=0s,dur=20ms,every=100ms)"

// TestGoldenBaselineRuns pins what the executor makes of every
// single-node baseline: iteration time, event count, overlap, plan
// length and retries at 1.7B and at the golden config, plus the full
// span list at the golden config — each clean, under the PCIe
// degradation plan and under an H2D drop plan. Regenerate with
// `go test ./internal/baselines -run TestGoldenBaselineRuns -update`
// and review the diff like any schedule change.
func TestGoldenBaselineRuns(t *testing.T) {
	faults := []struct {
		name string
		spec string
	}{
		{"clean", ""},
		{"pcie-degraded", expt.PCIeDegradationPlan},
		{"h2d-drop", goldenDropPlan},
	}
	var b strings.Builder
	for _, size := range []struct {
		name  string
		cfg   modelcfg.Config
		spans bool
	}{
		{"1.7B", modelcfg.Config1p7B(), false},
		{"golden", baselines.GoldenConfig(), true},
	} {
		m := baselines.V100Model(size.cfg)
		for _, info := range modelcfg.Methods() {
			if info.Engine != modelcfg.EngineBaseline {
				continue
			}
			for _, f := range faults {
				plan, err := fault.ParsePlan(f.spec)
				if err != nil {
					t.Fatal(err)
				}
				tr := trace.New()
				r := baselines.RunWith(info.M, m, baselines.Options{Trace: tr, Faults: plan})
				fmt.Fprintf(&b, "== %s %s %s\n", info.Key, size.name, f.name)
				if r.OOM {
					fmt.Fprintf(&b, "oom %s\n", r.OOMDetail)
					continue
				}
				fmt.Fprintf(&b, "iter_time_ns=%d steps=%d overlap=%v plan_ops=%d retries=%d\n",
					r.IterTime, r.Steps, r.Overlap, r.PlanOps, r.Retries)
				if !size.spans {
					continue
				}
				for _, s := range tr.Spans() {
					fmt.Fprintf(&b, "  %-8s %-9s %3d %12d %12d %s\n",
						s.Track, s.Kind, s.Layer, s.Start, s.End, s.Name)
				}
			}
		}
	}
	got := b.String()
	path := filepath.Join("testdata", "runs.golden")
	if *baselines.UpdateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("baseline runs drifted from %s (run with -update and review the diff)", path)
	}
}

// TestResultsIgnoreTrace requires every baseline's result, Overlap
// included, to be the same with and without a trace attached, clean
// and under each fault plan of the golden matrix.
func TestResultsIgnoreTrace(t *testing.T) {
	m := baselines.V100Model(baselines.GoldenConfig())
	for _, info := range modelcfg.Methods() {
		if info.Engine != modelcfg.EngineBaseline {
			continue
		}
		for _, spec := range []string{"", expt.PCIeDegradationPlan, goldenDropPlan} {
			plan, err := fault.ParsePlan(spec)
			if err != nil {
				t.Fatal(err)
			}
			bare := baselines.RunWith(info.M, m, baselines.Options{Faults: plan})
			traced := baselines.RunWith(info.M, m, baselines.Options{Trace: trace.New(), Faults: plan})
			if bare != traced {
				t.Errorf("%s under %q: result depends on the trace:\n  nil   %+v\n  trace %+v", info.Key, spec, bare, traced)
			}
		}
	}
}
