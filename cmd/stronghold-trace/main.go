// Command stronghold-trace records one training iteration's execution
// timeline (the Figure 4 experiment) and writes it as Chrome
// trace-event JSON loadable in chrome://tracing or Perfetto. It also
// prints per-track busy statistics and the compute/communication
// overlap fraction. -method selects any plan-driven method from the
// shared registry — STRONGHOLD through the core engine, the baselines
// (Megatron-LM, L2L, ZeRO-Offload, ZeRO-Infinity, Interleaved-Opt) as
// explicit-duration plans through core.RunPlan.
//
// Usage:
//
//	stronghold-trace -l 50 -hs 2560 -b 4 -o trace.json
//	stronghold-trace -method zero-infinity -l 20 -plan
//
// With -plan the command prints the validated schedule IR for one
// iteration instead of simulating: deterministic text by default, JSON
// with -plan-json, or with -plan-diff the patch a mid-run adaptive
// re-solve applies to move the schedule to another window size
// (STRONGHOLD methods only — the baseline schedules have no window to
// vary).
package main

import (
	"flag"
	"fmt"
	"os"

	"stronghold/internal/baselines"
	"stronghold/internal/core"
	"stronghold/internal/hw"
	"stronghold/internal/modelcfg"
	"stronghold/internal/perf"
	"stronghold/internal/plan"
	"stronghold/internal/sim"
	"stronghold/internal/trace"
)

func main() {
	method := flag.String("method", "stronghold", `plan-driven method to trace ("list" prints the registry)`)
	layers := flag.Int("l", 50, "number of transformer layers")
	hidden := flag.Int("hs", 2560, "hidden size")
	batch := flag.Int("b", 4, "batch size")
	window := flag.Int("w", 0, "window size (0 = analytic; STRONGHOLD methods only)")
	out := flag.String("o", "trace.json", "output path for Chrome trace JSON")
	planMode := flag.Bool("plan", false, "print the iteration's schedule plan instead of simulating")
	planJSON := flag.Bool("plan-json", false, "with -plan: emit indented JSON instead of text")
	planDiff := flag.Int("plan-diff", 0, "with -plan: print the patch to the plan for this window size (STRONGHOLD methods only)")
	flag.Parse()

	if *method == "list" {
		fmt.Print(modelcfg.MethodList())
		return
	}
	mth, err := modelcfg.ParseMethod(*method)
	if err != nil {
		fatalf("%v", err)
	}
	info := modelcfg.Lookup(mth)
	if !info.PlanDriven() {
		fatalf("method %s is not plan-driven: it has no schedule IR or event timeline to record", info.Key)
	}

	cfg, err := modelcfg.ConfigSpec{Layers: *layers, Hidden: *hidden, BatchSize: *batch}.Resolve()
	if err != nil {
		fatalf("%v", err)
	}
	m := perf.NewModel(cfg, hw.V100Platform())

	e := *core.NewEngine(m)
	e.Window = *window
	e.Feat.UseNVMe = info.NVMe
	if *planDiff > 0 && info.Engine != modelcfg.EngineCore {
		fatalf("-plan-diff varies the working window, which %s does not have", info.Key)
	}
	if *planMode {
		if info.Engine == modelcfg.EngineCore {
			printPlan(&e, *window, *planDiff, *planJSON)
			return
		}
		it, err := baselines.PlanFor(mth, m)
		if err != nil {
			fatalf("plan: %v", err)
		}
		renderPlan(it, *planJSON)
		return
	}

	tr := trace.New()
	r := baselines.RunWith(mth, e, tr)
	if r.OOM {
		fatalf("configuration does not fit: %s", r.OOMDetail)
	}
	fmt.Printf("model: %.1fB parameters (%d layers, hidden %d, batch %d)\n",
		cfg.ParamsBillion(), cfg.Layers, cfg.Hidden, cfg.BatchSize)
	if info.Engine == modelcfg.EngineCore {
		// The run's window is the solver's unless -w pinned it; the
		// unpinned solver's bounds say how the pin compares.
		free := e
		free.Window = 0
		if d, err := free.SolvedDecision(); err != nil {
			fmt.Printf("window: m=%d k=%d (window solver: %v)\n", r.FinalWindow, r.Streams, err)
		} else {
			fmt.Printf("window: m=%d k=%d (solver m=%d: P1=%d P2=%d Eq3=%d, memory-bound=%v, Eq5 feasible=%v)\n",
				r.FinalWindow, r.Streams, d.M, d.MFP, d.MBP, d.MOpt, d.MemoryBound, d.AsyncFeasible)
		}
	} else {
		fmt.Printf("method: %s (explicit-duration plan)\n", info.Display)
	}
	// The overlap of a run that moves nothing reads 1 (no transfer time
	// left exposed), which would claim every transfer was hidden.
	if tr.Busy(trace.KindH2D, trace.KindD2H, trace.KindNVMe) == 0 {
		fmt.Printf("steady-state iteration: %.3fs, no transfers: the run moves no bytes over H2D, D2H or NVMe\n",
			sim.Seconds(r.IterTime))
	} else {
		fmt.Printf("steady-state iteration: %.3fs, %.1f%% of transfer time hidden under compute\n",
			sim.Seconds(r.IterTime), r.Overlap*100)
	}
	reportTrace(tr, *out)
}

// reportTrace prints the per-track busy stats and occupancy chart and
// writes the Chrome trace JSON.
func reportTrace(tr *trace.Trace, out string) {
	kinds := []trace.Kind{trace.KindCompute, trace.KindH2D, trace.KindD2H, trace.KindOptimize, trace.KindNVMe}
	for _, k := range kinds {
		busy := tr.Busy(k)
		if busy == 0 {
			continue
		}
		fmt.Printf("  %-10s busy %8.3fs across %d spans\n", k, sim.Seconds(busy), len(tr.ByKind(k)))
	}

	fmt.Println("\noccupancy (one row per hardware track):")
	fmt.Print(tr.Gantt(100))

	js, err := tr.ChromeJSON()
	if err != nil {
		fatalf("trace export: %v", err)
	}
	if err := os.WriteFile(out, js, 0o644); err != nil {
		fatalf("write %s: %v", out, err)
	}
	fmt.Printf("trace written to %s (%d events)\n", out, tr.Len())
}

// printPlan renders the engine's validated plan for the configured
// window: as text, as JSON, or as the patch that moves it to the plan
// for window other.
func printPlan(e *core.Engine, window, other int, asJSON bool) {
	it, err := e.BuildPlan(window)
	if err != nil {
		fatalf("plan: %v", err)
	}
	if other > 0 {
		to, err := e.BuildPlan(other)
		if err != nil {
			fatalf("plan (m=%d): %v", other, err)
		}
		p, err := plan.Diff(it, to)
		if err != nil {
			fatalf("plan diff: %v", err)
		}
		fmt.Print(plan.PatchText(p))
		return
	}
	renderPlan(it, asJSON)
}

// renderPlan prints one validated iteration plan as text or JSON.
func renderPlan(it *plan.Iteration, asJSON bool) {
	if asJSON {
		js, err := plan.JSON(it)
		if err != nil {
			fatalf("plan export: %v", err)
		}
		fmt.Printf("%s\n", js)
		return
	}
	fmt.Print(plan.Text(it))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "stronghold-trace: "+format+"\n", args...)
	os.Exit(1)
}
