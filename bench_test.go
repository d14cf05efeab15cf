package stronghold

// Benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation. Each benchmark regenerates its experiment and
// reports the headline quantities as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reprints the whole evaluation. The per-experiment index lives in
// DESIGN.md §4; paper-vs-measured numbers in EXPERIMENTS.md.

import (
	"testing"

	"stronghold/internal/expt"
	"stronghold/internal/modelcfg"
)

func pick(rows []expt.SizeRow, m modelcfg.Method) expt.SizeRow {
	for _, r := range rows {
		if r.Method == m {
			return r
		}
	}
	return expt.SizeRow{}
}

func BenchmarkTableI(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows := expt.TableIRows()
		if len(rows) == 0 {
			b.Fatal("empty table")
		}
	}
	b.ReportMetric(float64(len(expt.TableIRows())), "configs")
}

func BenchmarkFigure1(b *testing.B) {
	b.ReportAllocs()
	var rows []expt.RelThroughputRow
	for i := 0; i < b.N; i++ {
		expt.Figure1a()
		rows = expt.Figure1b()
	}
	for _, r := range rows {
		if r.Method == modelcfg.ZeROOffload {
			b.ReportMetric(r.RelMegatron, "zero-offload-vs-megatron")
		}
	}
}

func BenchmarkFigure4(b *testing.B) {
	b.ReportAllocs()
	var overlap float64
	for i := 0; i < b.N; i++ {
		r, err := expt.Figure4()
		if err != nil {
			b.Fatal(err)
		}
		overlap = r.Overlap
	}
	b.ReportMetric(overlap, "overlap-fraction")
}

func BenchmarkFigure6a(b *testing.B) {
	b.ReportAllocs()
	var rows []expt.SizeRow
	for i := 0; i < b.N; i++ {
		rows = expt.Figure6a()
	}
	b.ReportMetric(pick(rows, modelcfg.Stronghold).MaxB, "stronghold-maxB")
	b.ReportMetric(pick(rows, modelcfg.ZeROInfinity).MaxB, "zero-infinity-maxB")
	b.ReportMetric(pick(rows, modelcfg.Megatron).MaxB, "megatron-maxB")
}

func BenchmarkFigure6b(b *testing.B) {
	b.ReportAllocs()
	var rows []expt.SizeRow
	for i := 0; i < b.N; i++ {
		rows = expt.Figure6b()
	}
	b.ReportMetric(pick(rows, modelcfg.Stronghold).MaxB, "stronghold-maxB")
	b.ReportMetric(pick(rows, modelcfg.ZeROInfinity).MaxB, "zero-infinity-maxB")
}

func BenchmarkFigure7a(b *testing.B) {
	b.ReportAllocs()
	var rows []expt.ThroughputRow
	for i := 0; i < b.N; i++ {
		rows = expt.Figure7a()
	}
	for _, r := range rows {
		if r.Method == modelcfg.Stronghold {
			b.ReportMetric(r.TFLOPS, "stronghold-TFLOPS")
		}
	}
}

func BenchmarkFigure7b(b *testing.B) {
	b.ReportAllocs()
	var rows []expt.ThroughputRow
	for i := 0; i < b.N; i++ {
		rows = expt.Figure7b()
	}
	for _, r := range rows {
		if r.Method == modelcfg.Stronghold {
			b.ReportMetric(r.ModelB, "stronghold-modelB")
		}
	}
}

func BenchmarkFigure8a(b *testing.B) {
	b.ReportAllocs()
	var rows []expt.RelThroughputRow
	for i := 0; i < b.N; i++ {
		rows = expt.Figure8a()
	}
	for _, r := range rows {
		switch r.Method {
		case modelcfg.Stronghold:
			b.ReportMetric(r.RelMegatron, "stronghold-vs-megatron")
		case modelcfg.L2L:
			b.ReportMetric(r.RelMegatron, "l2l-vs-megatron")
		}
	}
}

func BenchmarkFigure8b(b *testing.B) {
	b.ReportAllocs()
	var rows []expt.ScalingRow
	for i := 0; i < b.N; i++ {
		rows = expt.Figure8b()
	}
	worst := 0.0
	for _, r := range rows {
		if d := r.DeviationPc; d > worst || -d > worst {
			worst = max(d, -d)
		}
	}
	b.ReportMetric(worst, "max-linear-deviation-pct")
}

func BenchmarkFigure9(b *testing.B) {
	b.ReportAllocs()
	var solved int
	for i := 0; i < b.N; i++ {
		var err error
		_, solved, err = expt.Figure9()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(solved), "solved-window")
}

func BenchmarkFigure10(b *testing.B) {
	b.ReportAllocs()
	var rows []expt.NVMeRow
	for i := 0; i < b.N; i++ {
		rows = expt.Figure10()
	}
	b.ReportMetric(rows[0].SpeedupOver, "sh-vs-zi-speedup")
}

func BenchmarkFigure11(b *testing.B) {
	b.ReportAllocs()
	var rows []expt.StreamRow
	for i := 0; i < b.N; i++ {
		rows = expt.Figure11()
	}
	best := 0.0
	for _, r := range rows {
		if r.Speedup > best {
			best = r.Speedup
		}
	}
	b.ReportMetric(best, "best-speedup")
}

func BenchmarkFigure12(b *testing.B) {
	b.ReportAllocs()
	var rows []expt.DistRow
	for i := 0; i < b.N; i++ {
		rows = expt.Figure12()
	}
	for _, r := range rows {
		if r.Method == modelcfg.Stronghold {
			b.ReportMetric(r.RelZeRO2, "stronghold-vs-zero2")
		}
	}
}

func BenchmarkFigure13(b *testing.B) {
	b.ReportAllocs()
	var rows []expt.InferRow
	for i := 0; i < b.N; i++ {
		rows = expt.Figure13()
	}
	served := 0.0
	for _, r := range rows {
		if !r.ShOOM && r.SizeB > served {
			served = r.SizeB
		}
	}
	b.ReportMetric(served, "largest-served-B")
}

func BenchmarkFigure14(b *testing.B) {
	b.ReportAllocs()
	var rows []expt.AblationRow
	for i := 0; i < b.N; i++ {
		rows = expt.Figure14()
	}
	names := []string{"speedup-concurrent-opt", "speedup-mem-mgmt", "speedup-multi-stream"}
	for i, r := range rows {
		b.ReportMetric(r.Speedup, names[i])
	}
}

func BenchmarkCommVolume(b *testing.B) {
	b.ReportAllocs()
	var rows []expt.CommVolumeRow
	for i := 0; i < b.N; i++ {
		rows = expt.CommVolume()
	}
	b.ReportMetric(rows[len(rows)-1].Ratio, "vmp-over-vdp")
}

// BenchmarkFunctionalStep measures the real-math training path (the
// substrate behind the correctness experiments).
func BenchmarkFunctionalStep(b *testing.B) {
	tr, err := NewTrainer(TrainerConfig{
		Vocab: 64, SeqLen: 16, Hidden: 32, Heads: 4, Layers: 4,
		Window: 2, OptimizerWorkers: 2, BatchSize: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer tr.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Step()
	}
}

// BenchmarkJitterStudy measures the robustness extension (window depth
// vs transfer-jitter absorption).
func BenchmarkJitterStudy(b *testing.B) {
	b.ReportAllocs()
	var rows []expt.JitterRow
	for i := 0; i < b.N; i++ {
		rows = expt.JitterStudy(3)
	}
	b.ReportMetric(rows[0].Retention, "retention-w1")
	b.ReportMetric(rows[len(rows)-1].Retention, "retention-w8")
}

// BenchmarkHeteroWindow measures the fixed-budget window extension.
func BenchmarkHeteroWindow(b *testing.B) {
	b.ReportAllocs()
	var rows []expt.HeteroRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = expt.HeteroWindowStudy()
		if err != nil {
			b.Fatal(err)
		}
	}
	saving := float64(rows[0].GPUBytes) / float64(rows[1].GPUBytes)
	b.ReportMetric(saving, "memory-saving-x")
}

// whatIfFaults are the fault plans of BenchmarkWhatIf, periodic
// slowdowns like those of the serve-cold benchmark workload: one on
// host→device copies, and one on device→host copies and the CPU
// optimizers. Copies miss deadlines under both; no window re-solves.
var whatIfFaults = []string{
	"seed=3;h2d:slow(at=0s,dur=200ms,every=600ms,factor=0.3)",
	"seed=7;d2h:slow(at=0s,dur=100ms,every=400ms,factor=0.5);cpu:slow(at=0s,dur=300ms,every=1s,factor=0.4)",
}

// BenchmarkWhatIf is the simulation work of a batch of /v1/whatif
// requests: each of the six plan-driven single-node methods a what-if
// covers, at four model sizes, clean and under each fault plan of
// whatIfFaults. Its bytes/op are a CI gate
// (testdata/whatif_bytes_baseline.txt).
func BenchmarkWhatIf(b *testing.B) {
	methods := []Method{Stronghold, StrongholdNVMe, L2L, ZeROOffload, ZeROInfinity, InterleavedOpt}
	sizes := []float64{0.5, 1, 2, 4}
	faults := append([]string{""}, whatIfFaults...)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, m := range methods {
			for _, size := range sizes {
				for _, f := range faults {
					r, err := Simulate(SimConfig{SizeBillions: size, Method: m, Faults: f})
					if err != nil || r.OOM {
						b.Fatalf("%v at %gB, faults %q: err %v, OOM %q", m, size, f, err, r.Detail)
					}
				}
			}
		}
	}
}
