package core

import (
	"testing"

	"stronghold/internal/hw"
	"stronghold/internal/modelcfg"
	"stronghold/internal/perf"
	"stronghold/internal/sim"
)

// fuzzRand is a local SplitMix64 step for deriving bounded fuzz inputs
// deterministically from the fuzzer's raw integers.
func fuzzRand(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// FuzzSolver throws arbitrary model/platform shapes at the window
// solver and the full engine. On a heterogeneous profile, Solve must
// decide exactly as the loop oracle under every decision-variable
// shape, and the window-only Solve must return a feasible window or a
// typed error — never panic. A complete engine run must
// leave every memory arena balanced (the "never OOMs the arena model"
// contract: capacity misses surface as OOM results, not accounting
// corruption).
func FuzzSolver(f *testing.F) {
	f.Add(uint64(1), 20, 160, 4, 16, int64(12e9))
	f.Add(uint64(2), 1, 1, 1, 1, int64(1))
	f.Add(uint64(3), 64, 64, 8, 48, int64(32e9))
	f.Add(uint64(99), 4, 3, 7, 0, int64(-5))
	f.Add(uint64(0xdead), 200, 1, 2, 1000, int64(16e9))
	f.Fuzz(func(t *testing.T, seed uint64, layers, hiddenMul, batch, workers int, avail int64) {
		state := seed

		// Part 1: synthetic warm-up profile straight into the solver.
		n := bound(layers, 0, 256)
		prof := Profile{
			TAsync:            sim.Time(fuzzRand(&state) % uint64(sim.Milliseconds(1))),
			TOptGPU:           sim.Time(fuzzRand(&state) % uint64(sim.Milliseconds(10))),
			TOptCPU:           sim.Time(fuzzRand(&state) % uint64(sim.Milliseconds(100))),
			AvailGPU:          avail,
			OptWorkers:        bound(workers, -4, 128),
			OptPerTaskStretch: bound(workers, 0, 64),
		}
		for i := 0; i < n; i++ {
			prof.Layers = append(prof.Layers, LayerProfile{
				TFP:  sim.Time(fuzzRand(&state) % uint64(sim.Milliseconds(50))),
				TBP:  sim.Time(fuzzRand(&state) % uint64(sim.Milliseconds(100))),
				TC2G: sim.Time(fuzzRand(&state) % uint64(sim.Milliseconds(50))),
				TG2C: sim.Time(fuzzRand(&state) % uint64(sim.Milliseconds(50))),
				SFP:  int64(fuzzRand(&state)%(1<<30)) + 1,
				SBP:  int64(fuzzRand(&state)%(1<<31)) + 1,
			})
		}
		// The moment payload draws from its own stream, so part 2's
		// draws stay what they were.
		mom := ^seed
		prof.MomBytes = int64(fuzzRand(&mom) % (1 << 31))
		prof.MomH2D = sim.Time(fuzzRand(&mom) % uint64(sim.Milliseconds(50)))
		prof.MomD2H = sim.Time(fuzzRand(&mom) % uint64(sim.Milliseconds(50)))
		checkSolverOracle(t, prof)
		if d, err := Solve(prof, modelcfg.DecisionVars{Window: true}); err == nil {
			if d.M < 1 || d.M > n {
				t.Fatalf("solver returned window %d outside [1, %d]", d.M, n)
			}
			s := newSolver(prof)
			if got := s.windowBytes(d.M); got > prof.AvailGPU {
				t.Fatalf("solver window %d needs %d bytes, only %d available", d.M, got, prof.AvailGPU)
			}
		}

		// Part 2: a bounded model config on a deterministically warped
		// platform through the whole engine. Any capacity problem must
		// come back as a typed OOM result, and arenas must balance.
		cfg := modelcfg.NewConfig(bound(layers, 1, 8), 16*bound(hiddenMul, 1, 24), 16)
		cfg.BatchSize = bound(batch, 1, 8)
		if cfg.Validate() != nil {
			return
		}
		plat := hw.V100Platform()
		warp := func(x float64) float64 { // multiplier in [1/8, 2)
			return (1 + 15*float64(fuzzRand(&state)%1024)/1024) / 8 * x
		}
		plat.GPU.MemBytes = int64(warp(float64(plat.GPU.MemBytes))) + 1
		plat.PCIe.BandwidthPerDir = warp(plat.PCIe.BandwidthPerDir)
		plat.CPU.MemBandwidth = warp(plat.CPU.MemBandwidth)
		plat.CPU.UsableMemBytes = int64(warp(float64(plat.CPU.UsableMemBytes))) + 1
		plat.NVMe.ReadBW = warp(plat.NVMe.ReadBW)
		plat.NVMe.WriteBW = warp(plat.NVMe.WriteBW)

		e := NewEngine(perf.NewModel(cfg, plat))
		// Both optimizer pool sizes production runs: one worker or
		// defaultOptWorkers.
		e.Feat.ConcurrentOptimizers = workers&1 == 0
		res, run := e.runSim(2, nil)
		if res.OOM {
			if res.OOMDetail == "" {
				t.Fatal("OOM result without detail")
			}
			return
		}
		if res.IterTime <= 0 {
			t.Fatalf("non-OOM run with degenerate iteration time %v", res.IterTime)
		}
		if run == nil {
			t.Fatal("non-OOM run returned no run state")
		}
		if a := run.machine.GPUMem; a.Used() != 0 || a.AllocOps() != a.FreeOps() {
			t.Fatalf("arena %s unbalanced after run: used=%d allocs=%d frees=%d",
				a.Name(), a.Used(), a.AllocOps(), a.FreeOps())
		}
	})
}

// bound clamps v into [lo, hi] by wrapping negatives and reducing
// modulo the range — keeps fuzz integers meaningful without rejecting
// inputs.
func bound(v, lo, hi int) int {
	span := hi - lo + 1
	m := v % span
	if m < 0 {
		m += span
	}
	return lo + m
}
