package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"sync"
	"time"

	"stronghold/hostbench/workload"
	"stronghold/internal/perf"
	"stronghold/internal/plan"
)

// span is one timed call into a layer's public function, made from the
// benchmark's own code. Spans of one request or op share Req; Parent
// links a call to the span that caused it.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Layer  string `json:"layer"`
	Call   string `json:"call"`
	Name   string `json:"name,omitempty"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Key    string `json:"key,omitempty"` // backend: canonical request; serve: X-Cache
	Status int    `json:"status,omitempty"`
	Count  uint64 `json:"count,omitempty"` // plan ops, or simulated events of a run
	Alloc  uint64 `json:"alloc,omitempty"` // bytes allocated (validate) or heap objects (run)
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory; they are written once, at exit. A nil
// recorder records nothing, so untraced runs pay one nil check.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// at converts a clock reading to the recorder's time base.
func (r *recorder) at(t time.Time) int64 { return int64(t.Sub(r.t0)) }

func (r *recorder) add(s span) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = int64(len(r.spans) + 1)
	r.spans = append(r.spans, s)
	return s.ID
}

// end closes the span add returned id for.
func (r *recorder) end(id int64, t time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = r.at(t)
}

// snapshot returns the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Spans []span `json:"spans"`
	}{r.snapshot()}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// probeItem is one input the stage probe decomposes: a simulation, a
// request body for the serve layer's canonicalizer, or both.
type probeItem struct {
	name      string
	sim       *workload.Sim
	solveOnly bool // a solve request runs only the window solver
	path      string
	body      []byte
	// op and out, when set, are the sweep op the sim mirrors and the
	// outcome its first call returned.
	op  *workload.Op
	out workload.Outcome
}

// memDelta reads one runtime.MemStats counter around f, outside the
// timed interval f reports.
func memDelta(field func(*runtime.MemStats) uint64, f func() (time.Time, time.Time)) (time.Time, time.Time, uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0, t1 := f()
	runtime.ReadMemStats(&after)
	return t0, t1, field(&after) - field(&before)
}

func totalAlloc(m *runtime.MemStats) uint64 { return m.TotalAlloc }
func mallocs(m *runtime.MemStats) uint64    { return m.Mallocs }

// stageProbe calls each item's layers one at a time, a span per call,
// cycling through items until budget is spent (each item at least
// once). It returns the number of failed calls.
func (r *recorder) stageProbe(items []probeItem, budget time.Duration) int {
	if len(items) == 0 {
		return 0
	}
	failed := 0
	deadline := time.Now().Add(budget)
	for k := 0; k < len(items) || time.Now().Before(deadline); k++ {
		it := items[k%len(items)]
		root := r.add(span{Layer: "bench", Call: "stages", Name: it.name, Req: int64(k), Start: r.at(time.Now())})
		failed += r.stages(root, k, it)
		r.end(root, time.Now())
	}
	return failed
}

// stages is one stage-probe round of one item under the root span.
func (r *recorder) stages(root int64, k int, it probeItem) (failed int) {
	call := func(layer, name string, f func() error) {
		t0 := time.Now()
		err := f()
		r.add(span{Parent: root, Layer: layer, Call: name, Name: it.name, Req: int64(k), Start: r.at(t0), End: r.at(time.Now())})
		if err != nil {
			failed++
		}
	}
	if it.body != nil {
		call(workload.LayerServe, "serve.Canonical"+endpointName(it.path), func() error {
			_, _, err := workload.Canonical(it.path, it.body)
			return err
		})
	}
	if it.sim == nil {
		return failed
	}
	s := it.sim
	if s.Core() {
		call(workload.LayerSolve, "core.Engine.SolvedDecision", s.Solve)
		if it.solveOnly {
			return failed
		}
		t0 := time.Now()
		p, err := s.Build()
		t1 := time.Now()
		if err != nil {
			failed++
			return failed
		}
		ops := uint64(len(p.Ops))
		r.add(span{Parent: root, Layer: workload.LayerBuild, Call: "core.Engine.BuildPlan", Name: it.name, Req: int64(k), Start: r.at(t0), End: r.at(t1), Count: ops})
		var verr error
		t0, t1, alloc := memDelta(totalAlloc, func() (time.Time, time.Time) {
			t0 := time.Now()
			verr = plan.Validate(p)
			return t0, time.Now()
		})
		if verr != nil {
			failed++
		}
		r.add(span{Parent: root, Layer: workload.LayerValidate, Call: "plan.Validate", Name: it.name, Req: int64(k), Start: r.at(t0), End: r.at(t1), Count: ops, Alloc: alloc})
	} else {
		call(workload.LayerBaselines, "baselines.PlanFor", func() error {
			_, err := s.Build()
			return err
		})
	}
	layer, name := workload.LayerEngine, "core.Engine.Run"
	if !s.Core() {
		layer, name = workload.LayerBaselines, "baselines.Run"
	}
	var res perf.IterationResult
	t0, t1, objs := memDelta(mallocs, func() (time.Time, time.Time) {
		t0 := time.Now()
		res = s.Run()
		return t0, time.Now()
	})
	r.add(span{Parent: root, Layer: layer, Call: name, Name: it.name, Req: int64(k), Start: r.at(t0), End: r.at(t1), Count: res.Steps, Alloc: objs})
	if res.OOM || (it.op != nil && !it.op.Mirrors(it.out, res)) {
		failed++
	}
	return failed
}

// endpointName maps an endpoint to the suffix of its canonicalizer's
// name: /v1/whatif -> WhatIf.
func endpointName(path string) string {
	switch path {
	case workload.PathSolve:
		return "Solve"
	case workload.PathWhatIf:
		return "WhatIf"
	case workload.PathCapacity:
		return "Capacity"
	}
	return path
}

// repProbe runs the sim serially, on two sim workers, and serially
// with a metrics collector, in turn until budget is spent (at least
// once each), and returns the collector's and the parallel engine's
// time ratios against the plain serial run. The three runs must report
// the same simulated iteration.
func repProbe(s workload.Sim, budget time.Duration) (collect, parallel float64, failed int) {
	var serial, w2, withMetrics []float64
	deadline := time.Now().Add(budget)
	for len(serial) == 0 || time.Now().Before(deadline) {
		t0 := time.Now()
		a := s.RunWith(1, false)
		t1 := time.Now()
		b := s.RunWith(2, false)
		t2 := time.Now()
		c := s.RunWith(1, true)
		t3 := time.Now()
		serial = append(serial, ms(t1.Sub(t0)))
		w2 = append(w2, ms(t2.Sub(t1)))
		withMetrics = append(withMetrics, ms(t3.Sub(t2)))
		if a.IterTime != b.IterTime || a.Steps != b.Steps || a.IterTime != c.IterTime {
			failed++
		}
	}
	base := quantile(serial, 0.5)
	return quantile(withMetrics, 0.5) / base, quantile(w2, 0.5) / base, failed
}

// gcSample is the runtime's cumulative GC and total CPU time.
type gcSample struct{ gc, total float64 }

func sampleGC() gcSample {
	s := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	rtmetrics.Read(s)
	if s[0].Value.Kind() != rtmetrics.KindFloat64 || s[1].Value.Kind() != rtmetrics.KindFloat64 {
		return gcSample{}
	}
	return gcSample{s[0].Value.Float64(), s[1].Value.Float64()}
}

// gcMetric is the GC's share of the CPU time spent between two samples.
func gcMetric(from, to gcSample) metric {
	m := metric{Name: "runtime.gc_cpu_fraction", Unit: "ratio", Note: "no CPU time sampled"}
	if cpu := to.total - from.total; cpu > 0 {
		m.Value = (to.gc - from.gc) / cpu
		m.Note = fmt.Sprintf("of %.3g CPU-s in the traced phase", cpu)
	}
	return m
}

// spreadOrder returns the items sorted by depth and then visited with a
// stride coprime to their count, so the first few probes already span
// small, middle and deep models even when the budget ends early.
func spreadOrder(items []probeItem) []probeItem {
	sorted := append([]probeItem(nil), items...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].sim.Cfg.Layers < sorted[j].sim.Cfg.Layers })
	n := len(sorted)
	step := n/3 + 1
	for gcd(step, n) != 1 {
		step++
	}
	out := make([]probeItem, n)
	for i := range out {
		out[i] = sorted[i*step%n]
	}
	return out
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// largestRun returns the deepest core-engine sim among items the
// workload simulates (not solve-only), for the repeated-run probes.
func largestRun(items []probeItem) (workload.Sim, bool) {
	var best *workload.Sim
	for _, it := range items {
		if it.sim != nil && !it.solveOnly && it.sim.Core() && (best == nil || it.sim.Cfg.Layers > best.Cfg.Layers) {
			best = it.sim
		}
	}
	if best == nil {
		return workload.Sim{}, false
	}
	return *best, true
}

// durations lists the durations of the spans keep accepts.
func durations(spans []span, keep func(span) bool) []float64 {
	var out []float64
	for _, s := range spans {
		if keep(s) {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

func byCall(call string) func(span) bool { return func(s span) bool { return s.Call == call } }

// stageMetrics derives the simulation layers' per-layer metrics from
// stage-probe spans.
func stageMetrics(spans []span) []metric {
	p50 := func(call string) float64 { return quantile(durations(spans, byCall(call)), 0.5) }
	solve := p50("core.Engine.SolvedDecision")
	build := p50("core.Engine.BuildPlan")
	validate := p50("plan.Validate")
	run := p50("core.Engine.Run")
	baseRun := p50("baselines.Run")

	// Per probe round of a core sim: the run's own time beyond the
	// stages it repeats, its events and its heap objects.
	type round struct{ solve, build, validate, run, events, objs float64 }
	rounds := make(map[int64]*round)
	var order []int64
	var validateAlloc, planOps []float64
	byOps := make(map[uint64][]float64)
	var sumEngine, sumBase float64
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		rd := rounds[s.Parent]
		if rd == nil {
			rd = &round{}
			rounds[s.Parent] = rd
			order = append(order, s.Parent)
		}
		d := float64(s.dur())
		switch s.Call {
		case "core.Engine.SolvedDecision":
			rd.solve = d
		case "core.Engine.BuildPlan":
			rd.build = d
		case "plan.Validate":
			rd.validate = d
			validateAlloc = append(validateAlloc, float64(s.Alloc)/mib)
			planOps = append(planOps, float64(s.Count))
			byOps[s.Count] = append(byOps[s.Count], d)
		case "core.Engine.Run":
			rd.run, rd.events, rd.objs = d, float64(s.Count), float64(s.Alloc)
			sumEngine += d
		case "baselines.Run":
			sumBase += d
		}
	}
	var self, nsPerEvent, allocsPerEvent, events []float64
	for _, id := range order {
		rd := rounds[id]
		if rd.run == 0 || rd.validate == 0 {
			continue
		}
		x := rd.run - rd.solve - rd.build - rd.validate
		self = append(self, x)
		events = append(events, rd.events)
		if rd.events > 0 {
			nsPerEvent = append(nsPerEvent, x/rd.events)
			allocsPerEvent = append(allocsPerEvent, rd.objs/rd.events)
		}
	}
	// Validation cost against plan size, one point per distinct size.
	var xs, ys []float64
	sizes := make([]uint64, 0, len(byOps))
	for n := range byOps {
		sizes = append(sizes, n)
	}
	sort.Slice(sizes, func(i, j int) bool { return sizes[i] < sizes[j] })
	for _, n := range sizes {
		xs = append(xs, float64(n))
		ys = append(ys, quantile(byOps[n], 0.5))
	}
	exponent := 0.0
	if len(xs) >= 2 && xs[len(xs)-1] >= 1.5*xs[0] {
		exponent = logLogSlope(xs, ys)
	}
	share, baseShare := 0.0, 0.0
	if run > 0 {
		share = validate / run
	}
	if sumEngine+sumBase > 0 {
		baseShare = sumBase / (sumEngine + sumBase)
	}
	nsMS := float64(time.Millisecond)
	return []metric{
		{"core.solve_us_p50", "us", solve / 1e3, countNote(spans, "core.Engine.SolvedDecision")},
		{"plan.build_ms_p50", "ms", build / nsMS, countNote(spans, "core.Engine.BuildPlan")},
		{"plan.validate_ms_p50", "ms", validate / nsMS, countNote(spans, "plan.Validate")},
		{"plan.validate_share", "ratio", share, fmt.Sprintf("of engine.run_ms_p50 = %.4g ms", run/nsMS)},
		{"plan.validate_alloc_mb", "MB", quantile(validateAlloc, 0.5), "median per plan.Validate call"},
		{"plan.ops", "count", quantile(planOps, 0.5), "median ops per validated plan"},
		{"plan.validate_exponent", "slope", exponent, fmt.Sprintf("log-log fit over %d plan sizes", len(xs))},
		{"engine.run_ms_p50", "ms", run / nsMS, countNote(spans, "core.Engine.Run")},
		{"engine.exec_self_ms_p50", "ms", quantile(self, 0.5) / nsMS, "run minus solve, build and validate of the same sim"},
		{"sim.events", "count", quantile(events, 0.5), "median events per run"},
		{"engine.ns_per_event", "ns", quantile(nsPerEvent, 0.5), "exec self time per event"},
		{"engine.allocs_per_event", "count", quantile(allocsPerEvent, 0.5), "heap objects per event over the whole run"},
		{"baselines.run_us_p50", "us", baseRun / 1e3, countNote(spans, "baselines.Run")},
		{"baselines.share", "ratio", baseShare, fmt.Sprintf("of %.4g ms engine + baselines run time", (sumEngine+sumBase)/nsMS)},
	}
}

func countNote(spans []span, call string) string {
	return fmt.Sprintf("n=%d", len(durations(spans, byCall(call))))
}
