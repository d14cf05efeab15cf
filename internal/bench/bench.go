// Package bench is the simulator's canonical benchmark suite: nine
// fixed scenarios (STRONGHOLD at 1.7B and 4B, multi-stream, the NVMe
// tier, the no-optimization baseline and the plan-driven comparison
// methods) distilled into per-scenario throughput, TFLOPS, overlap,
// utilization and transfer-time percentiles.
//
// Scenario results are pure functions of the revision: the simulator
// is deterministic and each scenario builds its own engine, so the
// suite may be executed in any order, serially or concurrently, and
// produce the same bytes. TestGoldenSuite pins them in
// testdata/suite.golden; the host-time cost of running them is
// measured by the sweep-suite workload of hostbench/.
package bench

import (
	"stronghold/internal/baselines"
	"stronghold/internal/core"
	"stronghold/internal/hw"
	"stronghold/internal/metrics"
	"stronghold/internal/modelcfg"
	"stronghold/internal/perf"
)

// Scenario is one benchmark scenario's result set.
type Scenario struct {
	IterTimeNS    int64   `json:"iter_time_ns"`
	Throughput    float64 `json:"throughput_samples_per_s"`
	TFLOPS        float64 `json:"tflops"`
	Overlap       float64 `json:"overlap"`
	UtilCompute   float64 `json:"util_compute"`
	UtilH2D       float64 `json:"util_h2d"`
	UtilD2H       float64 `json:"util_d2h"`
	UtilCPU       float64 `json:"util_cpu"`
	UtilNVMe      float64 `json:"util_nvme"`
	H2DP50NS      int64   `json:"h2d_p50_ns"`
	H2DP99NS      int64   `json:"h2d_p99_ns"`
	Steps         uint64  `json:"steps"`
	MetricSamples uint64  `json:"metric_samples"`
}

// Case is one entry of the suite: a name plus a runner producing the
// scenario result.
type Case struct {
	Name string
	// Run's argument is ignored: the simulator has one serial engine.
	// It remains only because the host-time benchmark (hostbench/)
	// compiles against it; the benchmark's next revision drops it.
	Run func(int) Scenario
}

// scenario runs method on cfg on the V100 server through
// baselines.RunWith, with a metrics collector, and distills the
// scenario result. feat configures the STRONGHOLD engine; only its runs
// feed the collector, so the comparison methods' rows have no transfer
// percentiles (they still report real overlap, utilization and step
// counts).
func scenario(method modelcfg.Method, cfg modelcfg.Config, feat core.Features) Scenario {
	m := perf.NewModel(cfg, hw.V100Platform())
	mc := metrics.New()
	res := baselines.RunWith(method, core.Engine{Model: m, Feat: feat, Metrics: mc}, nil)
	s := scenarioFrom(res, m)
	if p50, ok := mc.Quantile(metrics.FamTransferNS, "pcie.h2d", 0.5); ok {
		s.H2DP50NS = p50
	}
	if p99, ok := mc.Quantile(metrics.FamTransferNS, "pcie.h2d", 0.99); ok {
		s.H2DP99NS = p99
	}
	return s
}

func scenarioFrom(res perf.IterationResult, m perf.Model) Scenario {
	return Scenario{
		IterTimeNS:    int64(res.IterTime),
		Throughput:    res.Throughput(m.Cfg.BatchSize),
		TFLOPS:        res.TFLOPS(m.TotalFlops()),
		Overlap:       res.Overlap,
		UtilCompute:   res.Util.Compute,
		UtilH2D:       res.Util.H2D,
		UtilD2H:       res.Util.D2H,
		UtilCPU:       res.Util.CPU,
		UtilNVMe:      res.Util.NVMe,
		Steps:         res.Steps,
		MetricSamples: res.MetricSamples,
	}
}

// Suite returns the benchmark scenarios in their canonical order.
func Suite() []Case {
	cfg1p7 := modelcfg.Config1p7B()
	cfg4b := modelcfg.ConfigForSize(4, 2560, 1)
	def := core.DefaultFeatures()
	multi := def
	multi.Streams = 2
	run := func(method modelcfg.Method, cfg modelcfg.Config, feat core.Features) func(int) Scenario {
		return func(int) Scenario { return scenario(method, cfg, feat) }
	}
	return []Case{
		{"stronghold-1p7b", run(modelcfg.Stronghold, cfg1p7, def)},
		{"stronghold-1p7b-multistream", run(modelcfg.Stronghold, cfg1p7, multi)},
		{"stronghold-4b", run(modelcfg.Stronghold, cfg4b, def)},
		{"stronghold-4b-nvme", run(modelcfg.StrongholdNVMe, cfg4b, def)},
		{"baseline-no-opt-1p7b", run(modelcfg.Stronghold, cfg1p7, core.Features{Streams: 1})},
		{"l2l-1p7b", run(modelcfg.L2L, cfg1p7, def)},
		{"zero-offload-1p7b", run(modelcfg.ZeROOffload, cfg1p7, def)},
		{"zero-infinity-1p7b", run(modelcfg.ZeROInfinity, cfg1p7, def)},
		{"interleaved-opt-1p7b", run(modelcfg.InterleavedOpt, cfg1p7, def)},
	}
}
