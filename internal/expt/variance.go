package expt

import (
	"stronghold/internal/baselines"
	"stronghold/internal/hw"
	"stronghold/internal/modelcfg"
	"stronghold/internal/perf"
	"stronghold/internal/sim"
)

// VarianceReport implements the §V-D reporting protocol: run each test
// case 10 times, report the geometric mean, and check run-to-run
// variance. On real hardware the paper measures <3%; the simulator is
// deterministic, so reproducing the protocol demonstrates 0% variance —
// which is what lets the test suite assert figure shapes exactly.
type VarianceReport struct {
	Runs          int
	GeoMeanSPS    float64
	MaxDeviationP float64 // max |x−mean|/mean across runs, percent
	Deterministic bool
}

// Variance runs the 1.7B STRONGHOLD case `runs` times (default 10).
func Variance(runs int) VarianceReport {
	if runs <= 0 {
		runs = 10
	}
	cfg := modelcfg.Config1p7B()
	var sps []float64
	for i := 0; i < runs; i++ {
		r := baselines.Run(modelcfg.Stronghold, perf.NewModel(cfg, hw.V100Platform()))
		if r.OOM {
			return VarianceReport{Runs: runs}
		}
		sps = append(sps, float64(cfg.BatchSize)/sim.Seconds(r.IterTime))
	}
	gm := GeoMean(sps)
	maxDev := 0.0
	deterministic := true
	for _, x := range sps {
		dev := (x - gm) / gm * 100
		if dev < 0 {
			dev = -dev
		}
		if dev > maxDev {
			maxDev = dev
		}
		if x != sps[0] {
			deterministic = false
		}
	}
	return VarianceReport{
		Runs: runs, GeoMeanSPS: gm,
		MaxDeviationP: maxDev, Deterministic: deterministic,
	}
}
