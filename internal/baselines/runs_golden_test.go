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
	"stronghold/internal/sim"
	"stronghold/internal/trace"
)

// goldenDropPlan blacks out the H2D link for 20 ms of every 100 ms:
// short enough that every transfer issued inside a window gets through
// once it ends.
const goldenDropPlan = "h2d:drop(at=0s,dur=20ms,every=100ms)"

// TestGoldenBaselineRuns pins what the executor makes of every
// single-node baseline: iteration time, event count, overlap, plan
// length, retries and deadline misses at 1.7B and at the golden config,
// plus the full span list (injected fault windows included) at the
// golden config — each clean, under the PCIe degradation plan and
// under an H2D drop plan. Regenerate with
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
				r := baselines.RunWith(info.M, baselines.Faulted(m, plan), tr)
				fmt.Fprintf(&b, "== %s %s %s\n", info.Key, size.name, f.name)
				if r.OOM {
					fmt.Fprintf(&b, "oom %s\n", r.OOMDetail)
					continue
				}
				fmt.Fprintf(&b, "iter_time_ns=%d steps=%d overlap=%v plan_ops=%d retries=%d deadline_misses=%d\n",
					r.IterTime, r.Steps, r.Overlap, r.PlanOps, r.Retries, r.DeadlineMisses)
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
			bare := baselines.RunWith(info.M, baselines.Faulted(m, plan), nil)
			traced := baselines.RunWith(info.M, baselines.Faulted(m, plan), trace.New())
			if bare != traced {
				t.Errorf("%s under %q: result depends on the trace:\n  nil   %+v\n  trace %+v", info.Key, spec, bare, traced)
			}
		}
	}
}

// TestFaultAccountingMatchesTrace runs every single-node plan-driven
// registry row, STRONGHOLD and baselines alike, under a PCIe slow+drop
// plan with a trace, and requires the result's degraded-mode counters
// to agree with what the trace draws: one "deadline miss" span per
// counted miss, one retry span per counted retry, and the injected
// fault windows themselves up to the end of the run.
func TestFaultAccountingMatchesTrace(t *testing.T) {
	faults, err := fault.ParsePlan("seed=7;h2d:slow(at=0s,dur=10s,factor=0.2);d2h:drop(at=0s,dur=50ms,every=200ms)")
	if err != nil {
		t.Fatal(err)
	}
	inj, err := fault.NewInjector(faults)
	if err != nil {
		t.Fatal(err)
	}
	cfg := modelcfg.Config1p7B()
	cfg.BatchSize = 4
	m := baselines.V100Model(cfg)
	for _, info := range modelcfg.Methods() {
		if !info.PlanDriven() || info.Distributed {
			continue
		}
		tr := trace.New()
		r := baselines.RunWith(info.M, baselines.Faulted(m, faults), tr)
		if r.OOM {
			t.Errorf("%s: %s", info.Key, r.OOMDetail)
			continue
		}
		var misses, retries uint64
		var windows []string
		var horizon sim.Time
		for _, s := range tr.Spans() {
			switch {
			case s.Track != "faults" || strings.HasPrefix(s.Name, "re-solve "):
			case strings.HasPrefix(s.Name, "deadline miss "):
				misses++
			case strings.Contains(s.Name, " retry "):
				retries++
			default:
				windows = append(windows, fmt.Sprintf("%s [%d, %d)", strings.Fields(s.Name)[0], s.Start, s.End))
				horizon = max(horizon, s.End)
			}
		}
		if r.DeadlineMisses != misses {
			t.Errorf("%s: %d deadline misses reported, %d drawn", info.Key, r.DeadlineMisses, misses)
		}
		if r.Retries != retries {
			t.Errorf("%s: %d retries reported, %d drawn", info.Key, r.Retries, retries)
		}
		// The last window drawn ends at the run's end or before it, and
		// no later window starts before the run's end, so the injector's
		// windows up to that horizon are exactly the ones the run saw.
		var want []string
		for _, w := range inj.Windows(horizon) {
			want = append(want, fmt.Sprintf("%s [%d, %d)", w.Target, w.Start, w.End))
		}
		if len(want) == 0 || strings.Join(windows, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s: trace draws fault windows\n%s\nwant\n%s", info.Key, strings.Join(windows, "\n"), strings.Join(want, "\n"))
		}
	}
}
