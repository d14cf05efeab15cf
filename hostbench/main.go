// Command hostbench measures stronghold in host time: how long a sweep
// of simulations takes, and how long a stronghold-serve query takes.
// Each run executes one workload, generated from its seed, for a fixed
// number of seconds, checks every output, and prints each metric by
// name with its unit, ending with one JSON line:
//
//	hostbench --workload sweep-scale --seed 1 --seconds 15 --trace 0
//	hostbench --workload serve-cold --seed 1 --seconds 15 --trace 1 --spans spans.json
//	hostbench -compare old/ new/
//
// --trace 0 prints the end-to-end metrics BENCHMARK.json names; --trace
// 1 runs the same workload with spans recorded around each call into a
// layer's public functions and prints the per-layer metrics derived
// from them. -compare reads two directories of saved run outputs and
// judges each (workload, end-to-end metric) pair against the bounds in
// BENCHMARK.json. See BENCHMARK.md.
//
// All simulation happens in the clock-free workload package; this
// command owns the clock, the goroutines, the HTTP server and the load
// generator.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"

	"stronghold/hostbench/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one named measurement. Note carries its sample count, or
// the base of a ratio.
type metric struct {
	Name  string
	Unit  string
	Value float64
	Note  string
}

// outcome is what one workload run reports.
type outcome struct {
	metrics   []metric
	attempted int
	failed    int
}

// opts are one run's settings.
type opts struct {
	workload string
	seed     uint64
	run      time.Duration
	traced   bool
	spans    string
	clients  int
}

// run is main without the process exit. Exit codes: 0 success, 1 bad
// usage, failed set-up or a failed output check, 2 a -compare
// regression.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hostbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: sweep-scale, sweep-suite, serve-hot or serve-cold")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 15, "how long the run measures")
	trace := fs.Int("trace", 0, "1 records spans and prints the per-layer metrics instead of the end-to-end ones")
	spans := fs.String("spans", "", "with --trace 1, write the recorded spans to this JSON file")
	compare := fs.Bool("compare", false, "compare two directories of saved run outputs: -compare old/ new/")
	benchFile := fs.String("benchmark", "BENCHMARK.json", "with -compare, the file holding the metrics' bounds")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "hostbench: -compare needs two directories: old new")
			return 1
		}
		return compareRuns(*benchFile, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "hostbench: usage: hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		return 1
	}
	o := opts{
		workload: *name,
		seed:     *seed,
		run:      time.Duration(*seconds * float64(time.Second)),
		traced:   *trace == 1,
		spans:    *spans,
		clients:  runtime.NumCPU(),
	}
	var (
		out   outcome
		err   error
		start = time.Now()
	)
	switch o.workload {
	case workload.SweepScale, workload.SweepSuite:
		out, err = runSweep(o)
	case workload.ServeHot:
		out, err = runHot(o)
	case workload.ServeCold:
		out, err = runCold(o)
	default:
		fmt.Fprintf(stderr, "hostbench: unknown workload %q (want one of %v)\n", o.workload, workload.Names)
		return 1
	}
	if err != nil {
		fmt.Fprintf(stderr, "hostbench: %s: %v\n", o.workload, err)
		return 1
	}
	fmt.Fprintf(stdout, "workload %s seed %d seconds %g trace %d nproc %d start %d\n",
		o.workload, o.seed, *seconds, *trace, o.clients, start.UnixNano())
	if err := report(stdout, out); err != nil {
		fmt.Fprintf(stderr, "hostbench: %v\n", err)
		return 1
	}
	if out.failed > 0 {
		fmt.Fprintf(stderr, "hostbench: %s: %d of %d operations failed their output check\n", o.workload, out.failed, out.attempted)
		return 1
	}
	return 0
}

// report prints each metric on its own line, then the result as one
// JSON object on the last line.
func report(w io.Writer, out outcome) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(out.metrics))
	for _, m := range out.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not finite", m.Name)
		}
		fmt.Fprintf(w, "  %-30s %14.6g %-6s %s\n", m.Name, m.Value, m.Unit, m.Note)
		ms[m.Name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// Set-up is timed setupMinReps times at least, and again until
// setupBudget has passed or setupMaxReps are done: the median of many
// cheap set-ups is steady where one alone times cold caches and heap
// growth the later ones do not pay.
const (
	setupMinReps = 3
	setupMaxReps = 25
	setupBudget  = 2 * time.Second
)

// timeSetup runs a workload's set-up as above and returns the last
// result, the median set-up time in seconds and the number of set-ups;
// release frees each earlier result.
func timeSetup[T any](setup func() (T, error), release func(T)) (T, float64, int, error) {
	var (
		v     T
		times []float64
	)
	start := time.Now()
	for len(times) < setupMinReps || (len(times) < setupMaxReps && time.Since(start) < setupBudget) {
		t0 := time.Now()
		x, err := setup()
		if err != nil {
			if len(times) > 0 {
				release(v)
			}
			return x, 0, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if len(times) > 1 {
			release(v)
		}
		v = x
	}
	return v, quantile(times, 0.5), len(times), nil
}

// endToEnd assembles the end-to-end metrics in BENCHMARK.json's order.
func endToEnd(setupS float64, setupReps int, st loopStats, latNote string) []metric {
	n := len(st.lats)
	return []metric{
		{"setup_s", "s", setupS, fmt.Sprintf("median of %d set-ups", setupReps)},
		{"ops_per_s", "1/s", st.opsPerS, st.opsNote},
		{"lat_ms_p50", "ms", quantile(st.lats, 0.5), fmt.Sprintf("%d sampled of %d %s", n, st.attempted, latNote)},
		{"lat_ms_p90", "ms", quantile(st.lats, 0.9), fmt.Sprintf("%d sampled, %d beyond", n, n-int(math.Ceil(0.9*float64(n))))},
		{"rss_mb", "MB", st.rssMB, st.rssNote},
	}
}

// split divides a traced run's time: a quarter untraced for the
// tracing-overhead baseline, then the traced workload, then the stage
// probes and the repeated-run probes.
func split(d time.Duration) (untraced, traced, stages, reps time.Duration) {
	return d / 4, d * 9 / 20, d * 3 / 20, d * 3 / 20
}

// finishTraced completes a traced run after its traced phase: the
// stage probes and repeated-run probes on items, the spans written
// out, and the per-layer metrics in BENCHMARK.json's order. Layers a
// workload never calls read 0.
func finishTraced(o opts, rec *recorder, items []probeItem, base, traced loopStats, gc metric, serveLayer func([]span) []metric) (outcome, error) {
	_, _, stagesD, repsD := split(o.run)
	failed := base.failed + traced.failed + rec.stageProbe(items, stagesD)
	var collect, parallel float64
	repNote := "no STRONGHOLD run in this workload"
	if s, ok := largestRun(items); ok {
		var f int
		collect, parallel, f = repProbe(s, repsD)
		repNote = "on " + s.Name
		failed += f
	}
	if o.spans != "" {
		if err := rec.write(o.spans); err != nil {
			return outcome{}, err
		}
	}
	spans := rec.snapshot()
	m := append(stageMetrics(spans),
		metric{"metrics.collect_overhead", "ratio", collect, "Run with the collector / without, " + repNote},
		metric{"engine.parallel_w2_over_serial", "ratio", parallel, "Run on 2 sim workers / serial, " + repNote},
		gc,
	)
	m = append(m, serveLayer(spans)...)
	b, t := quantile(base.lats, 0.5), quantile(traced.lats, 0.5)
	overhead := 0.0
	if b > 0 {
		overhead = 100 * (t/b - 1)
	}
	m = append(m, metric{"trace.overhead_pct", "%", overhead, fmt.Sprintf("traced lat_ms_p50 %.4g vs untraced %.4g", t, b)})
	return outcome{metrics: m, attempted: base.attempted + traced.attempted, failed: failed}, nil
}
