package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// bound is one end-to-end metric's entry in BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBounds(path string) ([]bound, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(doc.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s names no end_to_end metrics", path)
	}
	return doc.EndToEnd, nil
}

// savedRun is one saved run output: the workload and start time its
// header line names and the metrics of its final JSON line.
type savedRun struct {
	workload string
	start    int64 // Unix nanoseconds; 0 when the header has none
	metrics  map[string]float64
}

func parseRun(r io.Reader) (savedRun, error) {
	var run savedRun
	var last string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "workload ") && run.workload == "" {
			// The header is key-value pairs: workload <name> seed <n> ...
			f := strings.Fields(line)
			for i := 0; i+1 < len(f); i += 2 {
				switch f[i] {
				case "workload":
					run.workload = f[i+1]
				case "start":
					if t, err := strconv.ParseInt(f[i+1], 10, 64); err == nil {
						run.start = t
					}
				}
			}
		}
		if line != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return run, err
	}
	if run.workload == "" {
		return run, fmt.Errorf("no workload line")
	}
	var result struct {
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(last), &result); err != nil {
		return run, fmt.Errorf("last line is not a result: %w", err)
	}
	run.metrics = make(map[string]float64, len(result.Metrics))
	for name, v := range result.Metrics {
		run.metrics[name] = v.Value
	}
	return run, nil
}

// loadRuns reads every regular file in dir as a saved run output.
func loadRuns(dir string) ([]savedRun, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var runs []savedRun
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		run, err := parseRun(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		runs = append(runs, run)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s holds no run outputs", dir)
	}
	return runs, nil
}

// values collects one metric of one workload across runs.
func values(runs []savedRun, workload, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.metrics[metric]; ok && r.workload == workload {
			out = append(out, v)
		}
	}
	return out
}

// verdict judges one (workload, metric) pair. worse is the new median's
// change against the old one, signed so positive is worse. A pair is
// unresolved when either side's quartile spread, as a share of its
// median, is wider than the bound — unless every new run is better
// (ok) or worse (REGRESSION) than every old run.
func verdict(b bound, old, cur []float64) (worse, spread float64, mark string) {
	oq1, om, oq3 := quartiles(old)
	nq1, nm, nq3 := quartiles(cur)
	spread = max(relSpread(oq1, om, oq3), relSpread(nq1, nm, nq3))
	sign := 1.0
	if b.Better == "higher" {
		sign = -1
	}
	if om != 0 {
		worse = sign * (nm - om) / om
	}
	better := func(x, y float64) bool { return sign*(x-y) < 0 }
	if spread > b.Bound {
		switch {
		case all(cur, old, better):
			return worse, spread, "ok"
		case all(old, cur, better):
			return worse, spread, "REGRESSION"
		}
		return worse, spread, "unresolved"
	}
	if worse > b.Bound {
		return worse, spread, "REGRESSION"
	}
	return worse, spread, "ok"
}

func relSpread(q1, med, q3 float64) float64 {
	if med == 0 {
		return 0
	}
	return (q3 - q1) / med
}

// all reports whether every x in xs is better than every y in ys.
func all(xs, ys []float64, better func(x, y float64) bool) bool {
	for _, x := range xs {
		for _, y := range ys {
			if !better(x, y) {
				return false
			}
		}
	}
	return true
}

// apart reports whether every old run started before every new run, or
// every new run before every old one. Then the two sets saw the host at
// different times, and a drift in host speed reads as a change. Runs
// with no start time are never apart.
func apart(old, cur []savedRun) bool {
	span := func(rs []savedRun) (first, last int64, ok bool) {
		for i, r := range rs {
			if r.start == 0 {
				return 0, 0, false
			}
			if i == 0 || r.start < first {
				first = r.start
			}
			last = max(last, r.start)
		}
		return first, last, true
	}
	oFirst, oLast, ok1 := span(old)
	nFirst, nLast, ok2 := span(cur)
	return ok1 && ok2 && (oLast < nFirst || nLast < oFirst)
}

// compareRuns prints one row per (workload, end-to-end metric) with
// each side's median and quartiles. Exit codes: 0 no regression, 1
// unreadable input, 2 at least one REGRESSION.
func compareRuns(benchPath, oldDir, newDir string, stdout, stderr io.Writer) int {
	bounds, err := loadBounds(benchPath)
	if err != nil {
		fmt.Fprintf(stderr, "hostbench: %v\n", err)
		return 1
	}
	oldRuns, err := loadRuns(oldDir)
	if err != nil {
		fmt.Fprintf(stderr, "hostbench: %v\n", err)
		return 1
	}
	newRuns, err := loadRuns(newDir)
	if err != nil {
		fmt.Fprintf(stderr, "hostbench: %v\n", err)
		return 1
	}
	if apart(oldRuns, newRuns) {
		fmt.Fprintln(stdout, "warning: every run of one side started before every run of the other, so host drift between them reads as a change; hostbench/ab.sh alternates the sides")
	}
	seen := make(map[string]bool)
	var workloads []string
	for _, r := range append(append([]savedRun(nil), oldRuns...), newRuns...) {
		if !seen[r.workload] {
			seen[r.workload] = true
			workloads = append(workloads, r.workload)
		}
	}
	sort.Strings(workloads)
	fmt.Fprintf(stdout, "%-12s %-12s %30s %30s %8s %7s %7s  %s\n",
		"workload", "metric", "old median [q1, q3]", "new median [q1, q3]", "change", "spread", "bound", "verdict")
	regressions := 0
	for _, w := range workloads {
		for _, b := range bounds {
			old, cur := values(oldRuns, w, b.Name), values(newRuns, w, b.Name)
			if len(old) == 0 || len(cur) == 0 {
				fmt.Fprintf(stdout, "%-12s %-12s %d old and %d new runs: not compared\n", w, b.Name, len(old), len(cur))
				continue
			}
			worse, spread, mark := verdict(b, old, cur)
			if mark == "REGRESSION" {
				regressions++
			}
			oq1, om, oq3 := quartiles(old)
			nq1, nm, nq3 := quartiles(cur)
			fmt.Fprintf(stdout, "%-12s %-12s %30s %30s %+7.1f%% %6.1f%% %6.0f%%  %s\n",
				w, b.Name, fmtQ(oq1, om, oq3), fmtQ(nq1, nm, nq3), 100*worse, 100*spread, 100*b.Bound, mark)
		}
	}
	if regressions > 0 {
		fmt.Fprintf(stdout, "%d regression(s); change is signed so that + is worse\n", regressions)
		return 2
	}
	fmt.Fprintln(stdout, "no regressions; change is signed so that + is worse")
	return 0
}

func fmtQ(q1, med, q3 float64) string {
	return fmt.Sprintf("%.5g [%.5g, %.5g]", med, q1, q3)
}
