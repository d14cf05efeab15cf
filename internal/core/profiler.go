package core

import "fmt"

// warmupWindow is the conservative initial window used while profiling;
// the paper notes the initial window only needs to avoid OOM since
// profiling covers just the first iterations.
const warmupWindow = 2

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
	wRes := warm.Run(SteadyIters, nil)

	solved := *e
	solved.Window = 0
	sRes := solved.Run(SteadyIters, nil)
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
