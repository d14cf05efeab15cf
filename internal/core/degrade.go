package core

import (
	"fmt"

	"stronghold/internal/fault"
	"stronghold/internal/modelcfg"
	"stronghold/internal/plan"
	"stronghold/internal/sim"
	"stronghold/internal/trace"
)

// Degraded-mode tuning, used only when a fault plan is configured.
const (
	// deadlineFactor: a transfer whose observed time (service + retry
	// backoff) exceeds this multiple of its model-predicted time counts
	// as a deadline miss.
	deadlineFactor = 1.5
	// retryBackoff is the base virtual-time backoff after a transfer
	// hits a blackout window; attempt k waits retryBackoff·2^k.
	retryBackoff sim.Time = 100_000 // 100µs
	// maxRetries bounds the reissue attempts per transfer; past it the
	// transfer is forced through (modeling a blocking driver-level
	// retry).
	maxRetries = 10
	// growThreshold: when the observed/nominal transfer-time ratio over
	// an iteration reaches it, the window is re-solved against the
	// degraded transfer times.
	growThreshold = 1.25
	// shrinkThreshold: when the ratio falls back to it and the window
	// is above its clean solution, the window re-solves back down.
	shrinkThreshold = 1.1
)

// faultTrack is the Chrome-trace track fault and recovery events land
// on.
const faultTrack = "faults"

// maxFeasibleWindow returns the largest window ≥ the solved one that
// still fits every memory tier — the headroom the adaptive re-solve may
// grow into.
func (e *Engine) maxFeasibleWindow(window, streams int) int {
	cfg := e.Model.Cfg
	plat := e.Model.Plat
	maxW := window
	for m := window + 1; m <= cfg.Layers; m++ {
		fp := modelcfg.Footprint(e.method(), cfg, m, streams)
		if !fp.Fits(plat.GPU.MemBytes, plat.CPU.UsableMemBytes, plat.NVMe.Bytes) {
			break
		}
		maxW = m
	}
	return maxW
}

// enableFaults switches the run into degraded mode: stretch hooks on
// every injectable resource and drop-aware retrying transfers; a
// STRONGHOLD run also re-solves its window (runAdaptive). tr, when
// non-nil, receives fault/recovery events from the whole run, not just
// the traced final iteration.
func (r *iterRun) enableFaults(inj *fault.Injector, tr *trace.Trace) {
	r.inj = inj
	r.faultTr = tr

	m := r.machine
	m.H2D.SetStretch(inj.Stretch(fault.H2D))
	m.D2H.SetStretch(inj.Stretch(fault.D2H))
	// PCIe drops are handled by the engine's retry loop; the remaining
	// resources have no reissue path, so their blackouts degrade to
	// stalls inside the stretch.
	m.NVMeQ.SetStretch(inj.StretchAll(fault.NVMe))
	m.CPUPool.SetStretch(inj.StretchAll(fault.CPU))
}

// runAdaptive schedules iterations one at a time — each chained on the
// previous iteration's end so the window can be re-solved at every
// boundary from that iteration's observed transfer times. The
// cross-iteration optimizer-tail overlap is preserved: an iteration's
// end does not wait for CPU updates, whose facts the next iteration's
// prefetches wait on as usual.
func (r *iterRun) runAdaptive(iters int) []*plan.Run {
	ends := make([]*plan.Run, iters)
	var schedule func(it int)
	schedule = func(it int) {
		if it >= iters {
			return
		}
		if it > 0 {
			r.adaptWindow()
		}
		ends[it] = r.iteration(it == iters-1)
		ends[it].OnEnd(func() { schedule(it + 1) })
	}
	schedule(0)
	return ends
}

// observeCopy accumulates one transfer's observed-vs-nominal time and
// flags deadline misses — the live measurements the adaptive re-solve
// feeds back into the solver.
func (r *iterRun) observeCopy(op *plan.Op, nominal, start, end, delayed sim.Time) {
	actual := (end - start) + delayed
	r.obsNominal += nominal
	r.obsActual += actual
	if float64(actual) > deadlineFactor*float64(nominal) {
		r.deadlineMisses++
		if r.faultTr != nil {
			r.faultTr.Add(trace.Span{Track: faultTrack, Name: "deadline miss " + op.Name(),
				Kind: trace.KindFault, Layer: -1, Start: start, End: end})
		}
	}
}

// submitWithRetry issues copy id's transfer on res, attempt try, unless
// its fault target is inside a blackout window; then it retries. After
// maxRetries the transfer is forced through.
func (ev *schedEnv) submitWithRetry(res *sim.Resource, tg fault.Target, dur sim.Time, id plan.ID, try int) {
	r := ev.r
	if _, dropped := r.inj.DropUntil(tg, r.machine.Eng.Now()); dropped && try < maxRetries {
		ev.retry(res, tg, dur, id, try)
		return
	}
	ev.run.Submitted(id, 0)
	res.Submit(dur, ev, int32(id))
}

// retry backs copy id off exponentially in virtual time after attempt
// try hit a blackout window, adds the backoff to the copy's delay, and
// then reissues it.
func (ev *schedEnv) retry(res *sim.Resource, tg fault.Target, dur sim.Time, id plan.ID, try int) {
	r := ev.r
	eng := r.machine.Eng
	r.retries++
	backoff := retryBackoff << uint(min(try, 16))
	if ev.delayed == nil {
		ev.delayed = make(map[plan.ID]sim.Time)
	}
	ev.delayed[id] += backoff
	if r.faultTr != nil {
		now := eng.Now()
		r.faultTr.Add(trace.Span{Track: faultTrack, Name: fmt.Sprintf("%s retry %d", tg, try+1),
			Kind: trace.KindFault, Layer: -1, Start: now, End: now + backoff})
	}
	eng.Schedule(backoff, func() { ev.submitWithRetry(res, tg, dur, id, try+1) })
}

// adaptWindow runs at each iteration boundary in degraded mode: if the
// previous iteration's transfers drifted past growThreshold (or
// recovered below shrinkThreshold while the window is inflated), the
// warm-up profile is rescaled by the observed ratio and the solver
// re-run — Eq. 1–3 against measured, not assumed, transfer times. The
// window then moves to the new solution, clamped to [clean solution,
// memory-feasible maximum].
func (r *iterRun) adaptWindow() {
	obsNominal, obsActual := r.obsNominal, r.obsActual
	r.obsNominal, r.obsActual = 0, 0
	if r.e.DisableResolve || obsNominal == 0 {
		return
	}
	ratio := float64(obsActual) / float64(obsNominal)
	if ratio < 1 {
		ratio = 1
	}
	needGrow := ratio >= growThreshold
	mayShrink := r.window > r.baseWindow && ratio <= shrinkThreshold
	if !needGrow && !mayShrink {
		return
	}
	e := r.e
	prof := UniformProfile(e.Model, e.availableWindowBytes(), e.optWorkers())
	for i := range prof.Layers {
		prof.Layers[i].TC2G = sim.Time(float64(prof.Layers[i].TC2G) * ratio)
		prof.Layers[i].TG2C = sim.Time(float64(prof.Layers[i].TG2C) * ratio)
	}
	target := r.bufWindow // infeasible under degradation: take all the headroom
	if d, err := Solve(prof, modelcfg.DecisionVars{Window: true}); err == nil && !d.MemoryBound {
		target = d.M
	}
	if target < r.baseWindow {
		target = r.baseWindow
	}
	if target > r.bufWindow {
		target = r.bufWindow
	}
	if target == r.window {
		return
	}
	r.resolves++
	if r.faultTr != nil {
		now := r.machine.Eng.Now()
		r.faultTr.Add(trace.Span{Track: faultTrack, Name: fmt.Sprintf("re-solve m %d→%d (ratio %.2f)", r.window, target, ratio),
			Kind: trace.KindFault, Layer: -1, Start: now, End: now})
	}
	r.resize(target)
}

// resize moves the working window to newM at an iteration boundary by
// applying the plan patch between the two window schedules. Growing
// prefetches the newly resident layers (their buffers are claimed at
// issue, like any prefetch); shrinking offloads the evicted layers —
// whose parameters were just updated on-GPU — back to the host,
// releasing their buffers and routing the next forward prefetch
// through the offload's completion.
func (r *iterRun) resize(newM int) {
	from, to := r.planFor(r.window), r.planFor(newM)
	if from == nil || to == nil {
		return // schedErr recorded by planFor
	}
	patch, err := plan.Diff(from, to)
	if err != nil {
		if r.schedErr == nil {
			r.schedErr = err
		}
		return
	}
	eng := r.machine.Eng
	r.patches = append(r.patches, patchRun{run: patch.Apply(eng, &r.st, &schedEnv{r: r}), at: eng.Now(), window: newM})
	r.window = newM
}

// emitFaultWindows appends the injected fault schedule itself to the
// trace so degraded runs are visually debuggable: every stall, slow and
// drop window that fell inside the simulated horizon.
func emitFaultWindows(tr *trace.Trace, inj *fault.Injector, horizon sim.Time) {
	for _, w := range inj.Windows(horizon) {
		name := string(w.Target)
		switch {
		case w.Drop:
			name += " drop"
		case w.Factor > 0:
			name += fmt.Sprintf(" slow x%g", w.Factor)
		default:
			name += " stall"
		}
		tr.Add(trace.Span{Track: faultTrack, Name: name, Kind: trace.KindFault,
			Layer: -1, Start: w.Start, End: w.End})
	}
}

// teardown releases every buffer still held at the end of a run and
// destroys the window pool, so arena accounting balances (alloc ==
// free) run after run — including runs with retried copies and resized
// windows. It runs after result assembly and touches no engine state.
// Releases walk the layers in ascending order: releaseLayer drives
// allocator traffic whose op counters land in the iteration result.
func (r *iterRun) teardown() {
	switch {
	case r.pool != nil:
		for layer := range r.layerBuf {
			r.releaseLayer(layer)
		}
		r.pool.Destroy()
	case r.cache != nil:
		for layer := range r.layerCache {
			r.releaseLayer(layer)
		}
		r.cache.ReleaseAll()
	}
}
