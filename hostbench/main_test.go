package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"stronghold/hostbench/workload"
)

const benchFile = "../BENCHMARK.json"

// benchNames returns BENCHMARK.json's metric names of one kind.
func benchNames(t *testing.T, kind string) []string {
	t.Helper()
	data, err := os.ReadFile(benchFile)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name string }
	if err := json.Unmarshal(doc[kind], &ms); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range ms {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return names
}

// TestSmoke runs every workload for 300 ms, untraced and traced, and
// checks the result line's shape. It asserts nothing about timing.
func TestSmoke(t *testing.T) {
	for _, w := range workload.Names {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace="+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				spans := filepath.Join(t.TempDir(), "spans.json")
				code := run([]string{"--workload", w, "--seed", "3", "--seconds", "0.3", "--trace", trace, "--spans", spans}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res struct {
					Correct   bool
					Attempted int
					Failed    int
					Metrics   map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line: %v\n%s", err, stdout.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct %v, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
				}
				kind := "end_to_end"
				if trace == "1" {
					kind = "per_layer"
					if _, err := os.Stat(spans); err != nil {
						t.Errorf("traced run wrote no spans: %v", err)
					}
				}
				var got []string
				for name := range res.Metrics {
					got = append(got, name)
				}
				sort.Strings(got)
				if want := benchNames(t, kind); strings.Join(got, ",") != strings.Join(want, ",") {
					t.Errorf("metrics %v, want BENCHMARK.json's %s %v", got, kind, want)
				}
			})
		}
	}
}

// TestColdManyClients runs serve-cold with more clients than the
// server's default admission pool of 4. Every client's miss may be
// simulating at once, so none may be refused with 429.
func TestColdManyClients(t *testing.T) {
	out, err := runCold(opts{workload: workload.ServeCold, seed: 5, run: 300 * time.Millisecond, clients: 8})
	if err != nil {
		t.Fatal(err)
	}
	if out.failed != 0 || out.attempted < 8 {
		t.Errorf("attempted %d, failed %d", out.attempted, out.failed)
	}
}

func TestRunRejectsBadUsage(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "warp-drive"},
		{"--workload", workload.SweepSuite, "--trace", "2"},
		{"--workload", workload.SweepSuite, "--seconds", "0"},
		{"-compare", "only-one-dir"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 1 {
			t.Errorf("%v: exit %d, want 1", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v printed a result: %s", args, stdout.String())
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4) on the inputs in the comments.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25}, // range(1, 11)
		{[]float64{4, 1, 2}, 1, 2, 4},                               // [1, 2, 4]
		{[]float64{5, 1, 9, 3}, 1.5, 4, 8},                          // [1, 3, 5, 9]
		{[]float64{2, 1}, 0.75, 1.5, 2.25},                          // [1, 2]
	} {
		if q1, m, q3 := quartiles(c.xs); q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

// writeRuns saves n synthetic run outputs of one workload into dir.
// scale(i) multiplies run i's metric values.
func writeRuns(t *testing.T, dir, w string, n int, base map[string]float64, scale func(metric string, i int) float64) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		ms := make(map[string]map[string]any)
		for name, v := range base {
			ms[name] = map[string]any{"value": v * scale(name, i), "unit": "x"}
		}
		line, err := json.Marshal(map[string]any{"correct": true, "attempted": 10, "failed": 0, "metrics": ms})
		if err != nil {
			t.Fatal(err)
		}
		out := fmt.Sprintf("workload %s seed %d seconds 15 trace 0 nproc 2\n  setup_s ...\n%s\n", w, i, line)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-%d.txt", w, i)), []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := map[string]float64{"setup_s": 1.5, "ops_per_s": 6.8, "lat_ms_p50": 105, "lat_ms_p90": 330, "rss_mb": 195}
	// noise is ±2% around 1, different for each run and side.
	noise := func(seed int) func(string, int) float64 {
		return func(m string, i int) float64 { return 1 + 0.02*float64((i*7+seed+len(m))%5-2)/2 }
	}
	dir := t.TempDir()
	for _, w := range []string{workload.SweepScale, workload.ServeHot} {
		writeRuns(t, filepath.Join(dir, "old"), w, 10, base, noise(0))
		writeRuns(t, filepath.Join(dir, "same"), w, 10, base, noise(3))
	}
	doubled := func(m string, i int) float64 {
		if m == "lat_ms_p50" {
			return 2 * noise(3)(m, i)
		}
		return noise(3)(m, i)
	}
	writeRuns(t, filepath.Join(dir, "slow"), workload.SweepScale, 10, base, doubled)
	writeRuns(t, filepath.Join(dir, "slow"), workload.ServeHot, 10, base, noise(3))
	wide := func(m string, i int) float64 { return 1 + 0.4*float64(i%3-1) }
	writeRuns(t, filepath.Join(dir, "wide"), workload.SweepScale, 10, base, wide)

	cases := []struct {
		dir      string
		code     int
		contains string
	}{
		{"same", 0, "no regressions"},
		{"slow", 2, "REGRESSION"},
		{"wide", 0, "unresolved"},
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-compare", "-benchmark", benchFile, filepath.Join(dir, "old"), filepath.Join(dir, c.dir)}, &stdout, &stderr)
		if code != c.code {
			t.Errorf("%s: exit %d, want %d\n%s%s", c.dir, code, c.code, stdout.String(), stderr.String())
		}
		if !strings.Contains(stdout.String(), c.contains) {
			t.Errorf("%s: output lacks %q:\n%s", c.dir, c.contains, stdout.String())
		}
	}
	// The planted regression is reported on its own row and nowhere else.
	var stdout, stderr bytes.Buffer
	run([]string{"-compare", "-benchmark", benchFile, filepath.Join(dir, "old"), filepath.Join(dir, "slow")}, &stdout, &stderr)
	for _, line := range strings.Split(stdout.String(), "\n") {
		isPlanted := strings.HasPrefix(line, workload.SweepScale) && strings.Contains(line, "lat_ms_p50")
		if strings.HasSuffix(line, "REGRESSION") != isPlanted {
			t.Errorf("unexpected verdict: %s", line)
		}
	}
}

func TestCompareSeesSidesApart(t *testing.T) {
	r, err := parseRun(strings.NewReader("workload serve-hot seed 3 seconds 20 trace 0 nproc 2 start 1234\n" +
		`{"correct":true,"attempted":1,"failed":0,"metrics":{"setup_s":{"value":1,"unit":"s"}}}` + "\n"))
	if err != nil || r.workload != workload.ServeHot || r.start != 1234 {
		t.Fatalf("parseRun = %+v, %v", r, err)
	}
	runs := func(starts ...int64) []savedRun {
		var rs []savedRun
		for _, s := range starts {
			rs = append(rs, savedRun{start: s})
		}
		return rs
	}
	for _, c := range []struct {
		old, cur []savedRun
		want     bool
	}{
		{runs(1, 2, 3), runs(4, 5, 6), true},
		{runs(4, 5, 6), runs(1, 2, 3), true},
		{runs(1, 3, 5), runs(2, 4, 6), false},
		{runs(1, 2, 0), runs(4, 5, 6), false}, // a run without a start time
	} {
		if got := apart(c.old, c.cur); got != c.want {
			t.Errorf("apart(%v, %v) = %v, want %v", c.old, c.cur, got, c.want)
		}
	}
}

func TestCompareRejectsBadInput(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "garbage.txt"), []byte("not a run\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-compare", "-benchmark", benchFile, dir, dir}, &stdout, &stderr); code != 1 {
		t.Errorf("exit %d on an unreadable run file, want 1", code)
	}
	if code := run([]string{"-compare", "-benchmark", "missing.json", dir, dir}, &stdout, &stderr); code != 1 {
		t.Errorf("exit %d on a missing BENCHMARK.json, want 1", code)
	}
}
