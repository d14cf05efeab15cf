package core

import (
	"fmt"
	"strings"

	"stronghold/internal/sim"
	"stronghold/internal/trace"
)

// Warm-up profiling (§III-B): the real STRONGHOLD measures per-layer
// compute and transfer times during the first few training iterations
// and feeds the measurements to the window solver. This file implements
// the same loop against the simulated hardware: run warm-up iterations
// with a conservative window, read the timeline back, and derive a
// measured Profile — closing the same measure→model→decide loop as the
// production runtime (the analytic UniformProfile remains available as
// the a-priori model).

// warmupWindow is the conservative initial window used while profiling;
// the paper notes the initial window only needs to avoid OOM since
// profiling covers just the first iterations.
const warmupWindow = 2

// ProfileWarmup runs iters warm-up iterations (default 5, the paper's
// §III-B default, when iters <= 0) and returns a Profile built from
// measured span durations.
func (e *Engine) ProfileWarmup(iters int) (Profile, error) {
	if iters <= 0 {
		iters = 5
	}
	warm := *e
	warm.Window = warmupWindow
	warm.Feat.Streams = 1
	tr := trace.New()
	res := warm.Run(iters, tr)
	if res.OOM {
		return Profile{}, fmt.Errorf("core: warm-up failed: %s", res.OOMDetail)
	}
	n := e.Model.Cfg.Layers

	type acc struct {
		sum sim.Time
		cnt int
	}
	fp := make([]acc, n)
	bp := make([]acc, n)
	c2g := make([]acc, n)
	g2c := make([]acc, n)
	for _, s := range tr.Spans() {
		if s.Layer < 0 || s.Layer >= n {
			continue
		}
		d := s.Duration()
		switch {
		case s.Kind == trace.KindCompute && strings.HasPrefix(s.Name, "fp L"):
			fp[s.Layer].sum += d
			fp[s.Layer].cnt++
		case s.Kind == trace.KindCompute && strings.HasPrefix(s.Name, "bp L"):
			bp[s.Layer].sum += d
			bp[s.Layer].cnt++
		case s.Kind == trace.KindH2D:
			c2g[s.Layer].sum += d
			c2g[s.Layer].cnt++
		case s.Kind == trace.KindD2H && strings.HasPrefix(s.Name, "bp offload"):
			g2c[s.Layer].sum += d
			g2c[s.Layer].cnt++
		}
	}
	mean := func(a acc, fallback sim.Time) sim.Time {
		if a.cnt == 0 {
			return fallback
		}
		return a.sum / sim.Time(a.cnt)
	}
	// Analytic profile supplies sizes, async constants, and fallbacks
	// for layers that never transferred (the resident ones).
	base := UniformProfile(e.Model, e.availableWindowBytes(), e.optWorkers())
	layers := make([]LayerProfile, n)
	for i := range layers {
		layers[i] = LayerProfile{
			TFP:  mean(fp[i], base.Layers[i].TFP),
			TBP:  mean(bp[i], base.Layers[i].TBP),
			TC2G: mean(c2g[i], base.Layers[i].TC2G),
			TG2C: mean(g2c[i], base.Layers[i].TG2C),
			SFP:  base.Layers[i].SFP,
			SBP:  base.Layers[i].SBP,
		}
	}
	base.Layers = layers
	return base, nil
}

// WarmupOverheadFraction estimates the §V-D claim that warm-up
// profiling costs under 0.5% of training: the warm-up iterations run at
// the conservative window instead of the solved one, and their time
// still contributes training progress, so the overhead is only the
// per-iteration difference amortized over the run length.
func (e *Engine) WarmupOverheadFraction(warmupIters, totalIters int) (float64, error) {
	if warmupIters <= 0 || totalIters <= warmupIters {
		return 0, fmt.Errorf("core: need 0 < warmup < total")
	}
	warm := *e
	warm.Window = warmupWindow
	warm.Feat.Streams = 1
	wRes := warm.Run(3, nil)

	solved := *e
	solved.Window = 0
	sRes := solved.Run(3, nil)
	if wRes.OOM || sRes.OOM {
		return 0, fmt.Errorf("core: warm-up overhead estimation failed")
	}
	extra := float64(wRes.IterTime-sRes.IterTime) * float64(warmupIters)
	total := float64(sRes.IterTime) * float64(totalIters)
	if extra < 0 {
		extra = 0
	}
	return extra / total, nil
}
