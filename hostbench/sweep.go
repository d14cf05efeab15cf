package main

import (
	"fmt"
	"time"

	"stronghold/hostbench/workload"
)

// sweepEnv is a sweep workload ready to run: its ops and the outcome
// each op's first call returned, which every repeat must reproduce.
type sweepEnv struct {
	s   *workload.Sweep
	ref []workload.Outcome
}

func setupSweep(name string, seed uint64) (*sweepEnv, error) {
	newSweep := workload.NewSweepScale
	if name == workload.SweepSuite {
		newSweep = workload.NewSweepSuite
	}
	s, err := newSweep(seed)
	if err != nil {
		return nil, err
	}
	e := &sweepEnv{s: s, ref: make([]workload.Outcome, len(s.Ops))}
	for i, op := range s.Ops {
		out, err := op.Call()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", op.Name, err)
		}
		if out.Sim.OOM {
			return nil, fmt.Errorf("%s runs out of memory: %s", op.Name, out.Sim.Detail)
		}
		e.ref[i] = out
	}
	return e, nil
}

// loopStats is one measured phase of a workload.
type loopStats struct {
	lats      []float64 // per operation, ms: a uniform sample of up to reservoirLen
	attempted int
	failed    int
	opsPerS   float64
	opsNote   string
	rssMB     float64 // median resident set over the phase
	rssNote   string
}

// finish fills in the latency sample and the resident set. It is called
// as the phase ends, before anything sorts or copies samples.
func (st *loopStats) finish(lats *reservoir, rss *rssSampler) error {
	med, n, err := rss.finish()
	var peak float64
	if err == nil {
		peak, err = statusMB("VmHWM")
	}
	if err != nil {
		return fmt.Errorf("rss_mb: %w", err)
	}
	st.lats, st.rssMB = lats.xs, med
	st.rssNote = fmt.Sprintf("median of %d VmRSS samples; peak (VmHWM) %.4g MB", n, peak)
	return nil
}

// callName names the public function a sweep op's call enters.
func callName(layer string) string {
	if layer == workload.LayerBackend {
		return "stronghold.Simulate"
	}
	return "bench.Case.Run"
}

// loop runs passes over the ops, one client in a closed loop, until d
// has passed. Throughput counts complete passes only, so every sample
// of it has the same mix of ops.
func (e *sweepEnv) loop(d time.Duration, rec *recorder, seed uint64) (loopStats, error) {
	var st loopStats
	lats, rss := newReservoir(seed), startRSS()
	start := time.Now()
	deadline := start.Add(d)
	done, doneWall := 0, time.Duration(0)
	for pass := 0; time.Now().Before(deadline); pass++ {
		complete := true
		for _, i := range e.s.Pass(pass) {
			if !time.Now().Before(deadline) {
				complete = false
				break
			}
			op := &e.s.Ops[i]
			t0 := time.Now()
			out, err := op.Call()
			t1 := time.Now()
			if err != nil || out != e.ref[i] {
				st.failed++
			}
			if rec != nil {
				rec.add(span{Layer: op.Layer, Call: callName(op.Layer), Name: op.Name, Req: int64(st.attempted), Start: rec.at(t0), End: rec.at(t1)})
			}
			st.attempted++
			lats.add(ms(t1.Sub(t0)))
		}
		if complete {
			done, doneWall = st.attempted, time.Since(start)
		}
	}
	if err := st.finish(lats, rss); err != nil {
		return st, err
	}
	if done > 0 {
		st.opsPerS = float64(done) / doneWall.Seconds()
		st.opsNote = fmt.Sprintf("%d runs in complete passes over %.3f s", done, doneWall.Seconds())
	} else {
		wall := time.Since(start)
		st.opsPerS = float64(st.attempted) / wall.Seconds()
		st.opsNote = fmt.Sprintf("%d runs in %.3f s, no complete pass", st.attempted, wall.Seconds())
	}
	return st, nil
}

func runSweep(o opts) (outcome, error) {
	env, setupS, reps, err := timeSetup(func() (*sweepEnv, error) { return setupSweep(o.workload, o.seed) }, func(*sweepEnv) {})
	if err != nil {
		return outcome{}, err
	}
	if !o.traced {
		st, err := env.loop(o.run, nil, o.seed)
		if err != nil {
			return outcome{}, err
		}
		return outcome{
			metrics:   endToEnd(setupS, reps, st, "simulation runs, closed loop, 1 client"),
			attempted: st.attempted,
			failed:    st.failed,
		}, nil
	}

	untracedD, tracedD, _, _ := split(o.run)
	base, err := env.loop(untracedD, nil, o.seed)
	if err != nil {
		return outcome{}, err
	}
	rec := newRecorder()
	g0 := sampleGC()
	traced, err := env.loop(tracedD, rec, o.seed)
	if err != nil {
		return outcome{}, err
	}
	gc := gcMetric(g0, sampleGC())

	items := make([]probeItem, len(env.s.Ops))
	for i := range env.s.Ops {
		op := &env.s.Ops[i]
		items[i] = probeItem{name: op.Name, sim: &op.Sim, op: op, out: env.ref[i]}
	}
	return finishTraced(o, rec, spreadOrder(items), base, traced, gc, func([]span) []metric { return serveMetrics(nil, nil, 0, 0) })
}
