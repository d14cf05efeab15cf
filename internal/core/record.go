package core

import (
	"stronghold/internal/metrics"
	"stronghold/internal/plan"
	"stronghold/internal/sim"
	"stronghold/internal/trace"
)

// The executor's per-op record (plan.Record) is the engine's one
// instrument: after the engine drains, spans, Overlap and metrics are
// derived from the runs a simulation kept, iterations and resize
// patches, through one rule (kindOf, site).

// patchRun is one window resize: the patch's run, when it was applied
// and the window it moved to.
type patchRun struct {
	run    *plan.Run
	at     sim.Time
	window int
}

// spanKinds maps op kinds to span kinds.
var spanKinds = [...]trace.Kind{
	plan.ComputeFP: trace.KindCompute, plan.ComputeBP: trace.KindCompute,
	plan.OptStep: trace.KindOptimize, plan.Prefetch: trace.KindH2D,
	plan.Offload: trace.KindD2H, plan.NVMeStage: trace.KindNVMe,
}

// kindOf is op's span kind; ops that occupy nothing (buffer ops, joins)
// have none.
func kindOf(op *plan.Op) trace.Kind {
	if int(op.Kind) < len(spanKinds) {
		return spanKinds[op.Kind]
	}
	return ""
}

// transfer reports whether a span kind moves bytes: PCIe or NVMe.
func transfer(k trace.Kind) bool {
	return k == trace.KindH2D || k == trace.KindD2H || k == trace.KindNVMe
}

// site is where an op with a span kind ran: its trace track, and the
// FIFO resource it occupied — nil for a kernel on the SM array. worker
// is the CPU pool worker a CPU optimizer step ran on (Record.Worker);
// only the resource depends on it.
func (r *iterRun) site(op *plan.Op, worker int32) (string, *sim.Resource) {
	m := r.machine
	switch {
	case op.Kind == plan.OptStep && !op.GPU:
		return "cpu-opt", m.CPUPool.Worker(int(worker))
	case op.Kind == plan.Prefetch:
		return "pcie-h2d", m.H2D
	case op.Kind == plan.Offload:
		return "pcie-d2h", m.D2H
	case op.Kind == plan.NVMeStage:
		return m.NVMeQ.Name(), m.NVMeQ
	case r.timed: // a kernel on a timed run's FIFO queue
		return r.queues[op.Queue].Name(), r.queues[op.Queue]
	}
	return r.streams[op.Queue].Name(), nil // a kernel on a GPU stream
}

// replay calls fn for every numbered event of runs in the order the
// engine ran them: each op's completion and, under plan.State.Detail,
// each submit (submit true).
func (r *iterRun) replay(runs []*plan.Run, fn func(x *plan.Run, i int, submit bool)) {
	// order[n] is event n's run, as its index in runs plus one, and its
	// op, complemented for a submit. Zero entries are other runs' events;
	// unnumbered ops all land on order[0], which is cleared.
	type event struct{ run, op int32 }
	order := make([]event, r.st.Events()+1)
	for k, x := range runs {
		rec := x.Record()
		for i, n := range rec.Seq {
			order[n] = event{int32(k + 1), int32(i)}
		}
		for i, n := range rec.SubmitSeq {
			order[n] = event{int32(k + 1), ^int32(i)}
		}
	}
	order[0] = event{}
	for _, e := range order {
		if e.run == 0 {
			continue
		}
		if e.op < 0 {
			fn(runs[e.run-1], int(^e.op), true)
		} else {
			fn(runs[e.run-1], int(e.op), false)
		}
	}
}

// addSpans appends the span of every completed op of runs that has a
// kind to tr, in completion order, growing tr once for all of them. The
// spans' names are rendered into one buffer, sized for names of 16
// bytes on average, and one string backs them all.
func (r *iterRun) addSpans(tr *trace.Trace, runs []*plan.Run) {
	count := 0
	for _, x := range runs {
		for i, seq := range x.Record().Seq {
			if seq != 0 && kindOf(x.Op(plan.ID(i))) != "" {
				count++
			}
		}
	}
	tr.Grow(count)
	first := tr.Len()
	names, ends := make([]byte, 0, 16*count), make([]int, 0, count)
	r.replay(runs, func(x *plan.Run, i int, submit bool) {
		op, rec := x.Op(plan.ID(i)), x.Record()
		if kind := kindOf(op); kind != "" && !submit {
			track, _ := r.site(op, 0)
			tr.Add(trace.Span{Track: track, Kind: kind, Layer: int(op.Layer), Start: rec.Start[i], End: rec.End[i]})
			names = op.AppendName(names)
			ends = append(ends, len(names))
		}
	})
	all, start := string(names), 0
	spans := tr.Spans()[first:]
	for k := range spans {
		spans[k].Name = all[start:ends[k]]
		start = ends[k]
	}
}

// overlap is the fraction of runs' PCIe and NVMe transfer time hidden
// under compute kernels. An op that never ran spans [0, 0], which
// covers no time. A first pass counts the spans so each list is
// allocated once at its exact size; overlap owns both, so they are
// merged in place.
func overlap(runs []*plan.Run) float64 {
	var nCompute, nCopies int
	for _, x := range runs {
		for i := range x.Record().Start {
			switch k := kindOf(x.Op(plan.ID(i))); {
			case k == trace.KindCompute:
				nCompute++
			case transfer(k):
				nCopies++
			}
		}
	}
	compute, copies := make([][2]sim.Time, 0, nCompute), make([][2]sim.Time, 0, nCopies)
	for _, x := range runs {
		rec := x.Record()
		for i := range rec.Start {
			span := [2]sim.Time{rec.Start[i], rec.End[i]}
			switch k := kindOf(x.Op(plan.ID(i))); {
			case k == trace.KindCompute:
				compute = append(compute, span)
			case transfer(k):
				copies = append(copies, span)
			}
		}
	}
	return trace.OverlapInPlace(compute, copies)
}

// resAcc accumulates the series of one FIFO resource, and of the
// transfer channel it is if its ops move bytes. Its tasks arrive in
// completion order, which on a FIFO is submission order.
type resAcc struct {
	name, label          string
	channel              bool
	wait, bytes          int64
	hist                 metrics.Histogram // task durations
	qdepth, busyFrac, bw *metrics.Timeline
	// pendingEnds holds the ends of the tasks still pending at the last
	// submit, that task included.
	pendingEnds []sim.Time
}

// collect derives the run's metrics into mc from runs — every
// iteration and patch, which must have kept detail — plus the initial
// working window and the degraded-mode counters. It returns
// mc's timeline samples taken up to the end of the simulation; the
// samples of the buffer teardown that follows it are recorded but not
// counted.
func (r *iterRun) collect(mc *metrics.Collector, runs []*plan.Run) uint64 {
	// sample appends to a timeline, creating it on its first sample.
	sample := func(tl **metrics.Timeline, name string, t sim.Time, v float64) {
		if *tl == nil {
			*tl = mc.Series(name)
		}
		(*tl).Append(int64(t), v)
	}

	// The working window m(t): the initial window, then every resize.
	windowTL := mc.Series(metrics.SeriesWindow)
	window := r.baseWindow
	windowTL.Append(0, float64(window))
	m := window
	for _, p := range r.patches {
		m = p.window
		windowTL.Append(int64(p.at), float64(m))
	}
	mc.Set(metrics.FamWindowLayers, "", float64(m))

	// Window occupancy: how many layers hold device buffers, sampled at
	// every acquire and release. The first window's layers are acquired
	// before training starts; without a pool or cache nothing is held.
	holds := r.pool != nil || r.cache != nil
	held := make([]bool, r.n)
	occupied := 0
	var occupancy *metrics.Timeline
	occupy := func(at sim.Time, layer int, in bool) {
		if holds && held[layer] != in {
			held[layer] = in
			if in {
				occupied++
			} else {
				occupied--
			}
		}
		sample(&occupancy, metrics.SeriesOccupancy, at, float64(occupied))
	}
	for i := 0; i < window && i < r.n; i++ {
		occupy(0, i, true)
	}

	var resources []*resAcc // in first-use order
	byRes := map[*sim.Resource]*resAcc{}
	var procTasks, procBusy, optTasks, backlog int64
	var backlogTL *metrics.Timeline
	r.replay(runs, func(x *plan.Run, i int, submit bool) {
		op, rec := x.Op(plan.ID(i)), x.Record()
		cpuOpt := op.Kind == plan.OptStep && !op.GPU
		switch {
		case submit:
			if cpuOpt {
				optTasks++
				backlog++
				sample(&backlogTL, metrics.SeriesBacklog, rec.Submit[i], float64(backlog))
			}
			return
		case cpuOpt:
			backlog--
			sample(&backlogTL, metrics.SeriesBacklog, rec.End[i], float64(backlog))
		case op.Kind == plan.BufAcquire || op.Kind == plan.BufRelease:
			occupy(rec.End[i], int(op.Layer), op.Kind == plan.BufAcquire)
			return
		}
		kind := kindOf(op)
		if kind == "" {
			return
		}
		begin, end := rec.Start[i], rec.End[i]
		_, res := r.site(op, rec.Worker[i])
		if res == nil {
			procTasks++
			procBusy += int64(end - begin)
			return
		}
		a := byRes[res]
		if a == nil {
			a = &resAcc{name: res.Name(), label: metrics.CanonicalLabel("resource", res.Name()), channel: transfer(kind)}
			a.qdepth = mc.Series(metrics.SeriesQDepth + ":" + a.name)
			byRes[res] = a
			resources = append(resources, a)
		}
		// The resource's task, with the queue depth its submit saw (itself
		// included) and the cumulative busy fraction at its end. Ends never
		// decrease along a FIFO, so the tasks done by the submit are a
		// prefix of pendingEnds; it is dropped in place.
		at := rec.Submit[i]
		a.wait += int64(begin - at)
		a.hist.Observe(int64(end - begin))
		done := 0
		for done < len(a.pendingEnds) && a.pendingEnds[done] <= at {
			done++
		}
		a.pendingEnds = append(a.pendingEnds[:copy(a.pendingEnds, a.pendingEnds[done:])], end)
		a.qdepth.Append(int64(at), float64(len(a.pendingEnds)))
		if end > 0 {
			if a.busyFrac == nil {
				a.busyFrac = mc.Series(metrics.SeriesBusy + ":" + a.name)
			}
			a.busyFrac.Append(int64(end), float64(a.hist.Sum())/float64(end))
		}
		if !a.channel {
			return
		}
		// The channel's copy: its bytes and achieved bandwidth.
		a.bytes += op.Bytes
		if end > begin {
			if a.bw == nil {
				a.bw = mc.Series(metrics.SeriesBandwidth + ":" + a.name)
			}
			a.bw.Append(int64(begin), float64(op.Bytes)/float64(end-begin)) // bytes/ns == GB/s
		}
	})

	for _, a := range resources {
		mc.Add(metrics.FamResourceTasks, a.label, float64(a.hist.Count()))
		mc.Add(metrics.FamResourceBusyNS, a.label, float64(a.hist.Sum()))
		mc.Add(metrics.FamResourceQueueWait, a.label, float64(a.wait))
		mc.Histogram(metrics.FamResourceTaskNS, a.label).Merge(&a.hist)
		if a.channel { // a copy's transfer time is its task time
			label := metrics.CanonicalLabel("channel", a.name)
			mc.Add(metrics.FamTransferBytes, label, float64(a.bytes))
			mc.Histogram(metrics.FamTransferNS, label).Merge(&a.hist)
		}
	}
	if procTasks > 0 {
		label := metrics.CanonicalLabel("proc", r.machine.Compute.Name())
		mc.Add(metrics.FamProcTasks, label, float64(procTasks))
		mc.Add(metrics.FamProcBusyNS, label, float64(procBusy))
	}
	if optTasks > 0 {
		mc.Add(metrics.FamOptTasks, "", float64(optTasks))
		mc.Set(metrics.FamOptBacklog, "", float64(backlog))
	}
	if r.retries > 0 {
		mc.Add(metrics.FamRetries, "", float64(r.retries))
	}
	if r.deadlineMisses > 0 {
		mc.Add(metrics.FamDeadlineMisses, "", float64(r.deadlineMisses))
	}
	if r.resolves > 0 {
		mc.Add(metrics.FamWindowResolves, "", float64(r.resolves))
	}

	// Teardown releases every layer still held, in layer order.
	samples := mc.Points()
	for layer, in := range held {
		if in {
			occupy(r.machine.Eng.Now(), layer, false)
		}
	}
	if occupancy != nil {
		mc.Set(metrics.FamWindowOccupancy, "", float64(occupied))
	}
	return samples
}
