package core_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stronghold/internal/core"
	"stronghold/internal/expt"
	"stronghold/internal/fault"
	"stronghold/internal/hw"
	"stronghold/internal/metrics"
	"stronghold/internal/modelcfg"
	"stronghold/internal/perf"
	"stronghold/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the golden run fixture")

// Fault plans of the golden matrix beyond expt.PCIeDegradationPlan.
const (
	// goldenDropPlan blacks out both PCIe directions periodically, so
	// copies issued inside a window retry with backoff.
	goldenDropPlan = "h2d:drop(at=100ms,dur=40ms,every=500ms);d2h:drop(at=300ms,dur=40ms,every=500ms)"
	// goldenShrinkPlan slows PCIe severely for the first ten seconds
	// only: the window grows, then re-solves back down once the link
	// recovers.
	goldenShrinkPlan = "h2d:slow(at=0s,dur=1s,every=1s,count=10,factor=0.1);d2h:slow(at=0s,dur=1s,every=1s,count=10,factor=0.1)"
)

// goldenCase is one point of the STRONGHOLD feature matrix.
type goldenCase struct {
	name   string
	iters  int
	faults string
	setup  func(*core.Engine)
	// check asserts the property the case exists to exercise, so a
	// regenerated fixture cannot silently lose it.
	check func(perf.IterationResult) error
}

func goldenCases() []goldenCase {
	feat := func(f func(*core.Features)) func(*core.Engine) {
		return func(e *core.Engine) { f(&e.Feat) }
	}
	return []goldenCase{
		{name: "default", iters: 3},
		{name: "streams-2", iters: 3, setup: feat(func(f *core.Features) { f.Streams = 2 })},
		{name: "concurrent-opt-off", iters: 3, setup: feat(func(f *core.Features) { f.ConcurrentOptimizers = false })},
		{name: "user-memmgmt-off", iters: 3, setup: feat(func(f *core.Features) { f.UserLevelMemMgmt = false }),
			check: func(r perf.IterationResult) error {
				if r.CacheOps == 0 {
					return fmt.Errorf("caching allocator unused")
				}
				return nil
			}},
		{name: "nvme", iters: 3, setup: feat(func(f *core.Features) { f.UseNVMe = true; f.Streams = 1 })},
		{name: "coopt", iters: 3,
			setup: func(e *core.Engine) {
				// The capacity-constrained host of the co-optimization
				// study: a small GPU and slow DRAM make a split update pay.
				plat := hw.V100Platform()
				plat.GPU.MemBytes = 6 * hw.GB
				plat.CPU.MemBandwidth = 12.5e9
				plat.PCIe.BandwidthPerDir = 64e9
				e.Model = perf.NewModel(modelcfg.NewConfig(20, 2560, 4), plat)
				e.Feat.Streams = 1
				e.CoOpt = true
			},
			check: func(r perf.IterationResult) error {
				if r.OptGPUFrac <= 0 {
					return fmt.Errorf("co-optimization kept the all-CPU placement")
				}
				return nil
			}},
		{name: "hetero", iters: 3,
			setup: func(e *core.Engine) {
				e.Window = 2
				e.Feat.Streams = 1
				e.LayerScale = make([]float64, e.Model.Cfg.Layers)
				for i := range e.LayerScale {
					e.LayerScale[i] = float64(1 + 2*(i%2))
				}
			}},
		{name: "jitter", iters: 3, setup: func(e *core.Engine) { e.TransferJitter = 0.1 }},
		{name: "pcie-degraded", iters: 3, faults: expt.PCIeDegradationPlan,
			check: func(r perf.IterationResult) error {
				if clean := engine1p7B().Run(3, nil); r.FinalWindow <= clean.FinalWindow {
					return fmt.Errorf("window %d did not grow past the clean %d", r.FinalWindow, clean.FinalWindow)
				}
				return nil
			}},
		{name: "pcie-drop", iters: 3, faults: goldenDropPlan,
			check: func(r perf.IterationResult) error {
				if r.Retries == 0 {
					return fmt.Errorf("drop plan caused no retries")
				}
				return nil
			}},
		{name: "shrink", iters: 8, faults: goldenShrinkPlan,
			check: func(r perf.IterationResult) error {
				if r.WindowResolves < 2 {
					return fmt.Errorf("got %d re-solves, want a grow and a shrink", r.WindowResolves)
				}
				return nil
			}},
	}
}

func engine1p7B() *core.Engine {
	return core.NewEngine(perf.NewModel(modelcfg.Config1p7B(), hw.V100Platform()))
}

// writeRun renders one run: the result counters, then every span the
// trace holds — the final iteration's plus, under faults, the whole
// run's fault track.
func writeRun(b *strings.Builder, name string, r perf.IterationResult, tr *trace.Trace) {
	fmt.Fprintf(b, "== %s\n", name)
	if r.OOM {
		fmt.Fprintf(b, "oom %s\n", r.OOMDetail)
		return
	}
	fmt.Fprintf(b, "iter_time_ns=%d steps=%d retries=%d deadline_misses=%d window_resolves=%d final_window=%d\n",
		r.IterTime, r.Steps, r.Retries, r.DeadlineMisses, r.WindowResolves, r.FinalWindow)
	fmt.Fprintf(b, "alloc_ops=%d cache_ops=%d cache_flushes=%d plan_ops=%d opt_gpu_frac=%v overlap=%v\n",
		r.AllocOps, r.CacheOps, r.CacheFlushes, r.PlanOps, r.OptGPUFrac, r.Overlap)
	fmt.Fprintf(b, "util=%+v\n", r.Util)
	for _, s := range tr.Spans() {
		fmt.Fprintf(b, "  %-9s %-9s %3d %12d %12d %s\n", s.Track, s.Kind, s.Layer, s.Start, s.End, s.Name)
	}
}

// TestGoldenCoreRuns pins what the executor makes of STRONGHOLD's own
// plans across the feature matrix: every result counter, the final
// iteration's full span list and, under faults, the whole-run fault
// track; plus one run's Prometheus export with a metrics collector
// attached. Regenerate with
// `go test ./internal/core -run TestGoldenCoreRuns -update` and review
// the diff like any schedule change.
func TestGoldenCoreRuns(t *testing.T) {
	var b strings.Builder
	for _, tc := range goldenCases() {
		e := engine1p7B()
		if tc.setup != nil {
			tc.setup(e)
		}
		if tc.faults != "" {
			p, err := fault.ParsePlan(tc.faults)
			if err != nil {
				t.Fatal(err)
			}
			e.Faults = p
		}
		tr := trace.New()
		r := e.Run(tc.iters, tr)
		if tc.check != nil && !r.OOM {
			if err := tc.check(r); err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
		}
		writeRun(&b, tc.name, r, tr)
	}

	// The collected run stages on NVMe under the drop plan, so the export
	// carries every transfer channel and the fault counters.
	e := engine1p7B()
	e.Feat.UseNVMe = true
	drop, err := fault.ParsePlan(goldenDropPlan)
	if err != nil {
		t.Fatal(err)
	}
	e.Faults = drop
	mc := metrics.New()
	e.Metrics = mc
	tr := trace.New()
	writeRun(&b, "metrics-nvme-drop", e.Run(3, tr), tr)
	var prom bytes.Buffer
	if err := mc.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	b.WriteString("-- prometheus\n")
	b.Write(prom.Bytes())

	got := b.String()
	path := filepath.Join("testdata", "runs.golden")
	if *update {
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
		t.Errorf("core runs drifted from %s (run with -update and review the diff)", path)
	}
}
