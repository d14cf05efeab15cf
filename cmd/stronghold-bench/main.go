// Command stronghold-bench runs the simulator's canonical benchmark
// suite (internal/bench) and writes one BENCH_<rev>.json document:
// per-scenario throughput, achieved TFLOPS, compute/transfer overlap
// fraction, end-of-run resource utilization, and transfer-time
// percentiles from the metrics collector. Because the simulator is
// deterministic, the file is byte-reproducible for a given revision,
// which makes it diffable in review and comparable across commits:
//
//	stronghold-bench -rev abc123 -out BENCH_abc123.json
//	stronghold-bench -workers 8                      # concurrent sweep, same bytes
//	stronghold-bench -workers 8 -timing -rev abc123  # adds wall-clock section
//	stronghold-bench -compare -threshold 0.05 BENCH_old.json BENCH_new.json
//
// -workers runs up to that many scenarios concurrently, one goroutine
// each; every scenario still simulates on the serial engine, so the
// results are byte-identical to the serial sweep (the command verifies
// this when it has both sweeps in hand). -timing runs the suite twice —
// serially, then concurrently — and appends the measured wall-clocks;
// it is the only flag that makes the document machine-dependent.
//
// -compare exits 2 when any scenario's throughput regressed by more
// than the threshold fraction, making it usable as a CI gate.
//
// This package deliberately imports no simulation code: all engine
// work lives in internal/bench, so the wall-clock reads and the
// scenario goroutines here stay outside the simulation-scoped
// determinism rules (stronghold-vet's wallclock/enginepure scopes).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"stronghold/internal/bench"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// sweep runs every suite scenario matching only and returns the
// results. workers <= 1 runs scenarios sequentially; workers > 1 runs
// them concurrently, capped at workers in flight. Either way the map is
// assembled in suite order from an indexed slice, so the output is
// independent of goroutine scheduling.
func sweep(cases []bench.Case, only string, workers int) map[string]bench.Scenario {
	results := make([]bench.Scenario, len(cases))
	ran := make([]bool, len(cases))
	if workers <= 1 {
		for i, c := range cases {
			if only != "" && c.Name != only {
				continue
			}
			results[i] = c.Run(1)
			ran[i] = true
		}
	} else {
		var wg sync.WaitGroup
		sem := make(chan struct{}, workers)
		for i, c := range cases {
			if only != "" && c.Name != only {
				continue
			}
			ran[i] = true
			wg.Add(1)
			go func(i int, c bench.Case) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				results[i] = c.Run(1)
			}(i, c)
		}
		wg.Wait()
	}
	out := make(map[string]bench.Scenario)
	for i, c := range cases {
		if ran[i] {
			out[c.Name] = results[i]
		}
	}
	return out
}

// run is main without the process exit, for the e2e test harness.
// Exit codes: 0 success, 1 usage/IO error, 2 regression past threshold.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("stronghold-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	rev := fs.String("rev", "dev", "revision label recorded in the document")
	out := fs.String("out", "", "output path (default BENCH_<rev>.json; - for stdout)")
	only := fs.String("only", "", "run only the named scenario")
	list := fs.Bool("list", false, "list scenario names and exit")
	workers := fs.Int("workers", 0, "run up to this many scenarios concurrently (<=1 = serial); results are byte-identical")
	timing := fs.Bool("timing", false, "run the suite serially and concurrently, recording both wall-clocks (machine-dependent)")
	compare := fs.Bool("compare", false, "compare two BENCH files: -compare old.json new.json")
	threshold := fs.Float64("threshold", 0.05, "with -compare: max tolerated fractional throughput drop")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	cases := bench.Suite()
	if *list {
		for _, c := range cases {
			fmt.Fprintln(stdout, c.Name)
		}
		return 0
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "stronghold-bench: -compare needs exactly two BENCH files")
			return 1
		}
		return bench.Compare(fs.Arg(0), fs.Arg(1), *threshold, stdout, stderr)
	}
	doc := bench.Doc{Schema: bench.Schema, Rev: *rev}
	if *timing {
		w := *workers
		if w <= 1 {
			w = runtime.NumCPU()
		}
		var msBefore, msAfter runtime.MemStats
		runtime.ReadMemStats(&msBefore)
		serialStart := time.Now()
		serial := sweep(cases, *only, 1)
		serialWall := time.Since(serialStart)
		runtime.ReadMemStats(&msAfter)
		parallelStart := time.Now()
		parallel := sweep(cases, *only, w)
		parallelWall := time.Since(parallelStart)
		// The two sweeps double as a differential check: scenario
		// results may not depend on how many run at once.
		for name, s := range serial {
			if parallel[name] != s {
				fmt.Fprintf(stderr, "stronghold-bench: scenario %q diverged between serial and concurrent sweeps\n", name)
				return 1
			}
		}
		doc.Scenarios = serial
		var steps uint64
		for _, s := range serial {
			steps += s.Steps
		}
		allocs := msAfter.Mallocs - msBefore.Mallocs
		perStep := 0.0
		if steps > 0 {
			perStep = float64(allocs) / float64(steps)
		}
		doc.Timing = &bench.Timing{
			SerialWallNS:        serialWall.Nanoseconds(),
			ParallelWallNS:      parallelWall.Nanoseconds(),
			Workers:             w,
			CPUs:                runtime.NumCPU(),
			SerialAllocs:        allocs,
			SerialAllocsPerStep: perStep,
		}
	} else {
		doc.Scenarios = sweep(cases, *only, *workers)
	}
	if *only != "" && len(doc.Scenarios) == 0 {
		fmt.Fprintf(stderr, "stronghold-bench: unknown scenario %q\n", *only)
		return 1
	}
	path := *out
	if path == "" {
		path = "BENCH_" + *rev + ".json"
	}
	var w io.Writer = stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(stderr, "stronghold-bench: %v\n", err)
			return 1
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintf(stderr, "stronghold-bench: %v\n", err)
		return 1
	}
	if path != "-" {
		fmt.Fprintf(stdout, "wrote %s (%d scenarios)\n", path, len(doc.Scenarios))
	}
	return 0
}
