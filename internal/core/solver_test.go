package core

import (
	"fmt"
	"testing"
	"testing/quick"

	"stronghold/internal/hw"
	"stronghold/internal/modelcfg"
	"stronghold/internal/perf"
	"stronghold/internal/sim"
)

func uniformTestProfile(n int, tFP, tC2G sim.Time, availGPU int64) Profile {
	layers := make([]LayerProfile, n)
	for i := range layers {
		layers[i] = LayerProfile{
			TFP: tFP, TBP: 3 * tFP, TC2G: tC2G, TG2C: 2 * tC2G,
			SFP: 100, SBP: 200,
		}
	}
	return Profile{
		Layers: layers, TAsync: 8_000, TOptGPU: 1_000_000,
		TOptCPU: 10_000_000, AvailGPU: availGPU, OptWorkers: 16,
	}
}

func TestSolverComputeBoundPicksSmallWindow(t *testing.T) {
	// Compute far exceeds transfer: the minimal window suffices.
	p := uniformTestProfile(20, sim.Milliseconds(100), sim.Milliseconds(1), 1<<20)
	d, err := Solve(p, modelcfg.DecisionVars{Window: true})
	if err != nil {
		t.Fatal(err)
	}
	if d.M > 2 {
		t.Fatalf("compute-bound model should need a tiny window, got %d", d.M)
	}
	if d.MemoryBound {
		t.Fatal("plenty of memory available")
	}
	if !d.AsyncFeasible {
		t.Fatal("async overhead trivially feasible here")
	}
}

func TestSolverTransferBoundGrowsWindow(t *testing.T) {
	// Transfers 4x compute: P1's (1d) needs enough layers to cover
	// two-way traffic.
	p := uniformTestProfile(20, sim.Milliseconds(10), sim.Milliseconds(40), 1<<20)
	d, err := Solve(p, modelcfg.DecisionVars{Window: true})
	if err != nil {
		t.Fatal(err)
	}
	if d.M < 4 {
		t.Fatalf("transfer-bound model needs a large window, got %d", d.M)
	}
	if d.MFP <= 1 {
		t.Fatalf("P1 should demand more than one layer, got %d", d.MFP)
	}
}

func TestSolverConstraintsHoldAtChosenM(t *testing.T) {
	// Whatever m the solver returns (absent a memory bound), the P1/P2
	// window checks must pass at that m.
	p := uniformTestProfile(30, sim.Milliseconds(20), sim.Milliseconds(25), 1<<30)
	d, err := Solve(p, modelcfg.DecisionVars{Window: true})
	if err != nil {
		t.Fatal(err)
	}
	if d.MemoryBound {
		t.Fatal("unexpected memory bound")
	}
	s := newSolver(p)
	if !s.fpWindowOK(d.M) {
		t.Fatalf("P1 violated at returned m=%d", d.M)
	}
	if !s.bpWindowOK(d.M) {
		t.Fatalf("P2 violated at returned m=%d", d.M)
	}
}

func TestSolverMemoryBoundClamps(t *testing.T) {
	// Only 3 layers' worth of window memory available although the
	// constraints want more.
	p := uniformTestProfile(20, sim.Milliseconds(10), sim.Milliseconds(100), 700)
	d, err := Solve(p, modelcfg.DecisionVars{Window: true})
	if err != nil {
		t.Fatal(err)
	}
	if !d.MemoryBound {
		t.Fatal("solver must report the memory clamp")
	}
	if s := newSolver(p); s.windowBytes(d.M) > p.AvailGPU {
		t.Fatalf("returned window %d does not fit memory", d.M)
	}
}

func TestSolverSingleLayerDoesNotFit(t *testing.T) {
	p := uniformTestProfile(20, 1, 1, 100) // windowBytes(1) = 200+100
	if _, err := Solve(p, modelcfg.DecisionVars{Window: true}); err == nil {
		t.Fatal("must error when even one layer cannot fit")
	}
}

func TestSolverEmptyProfile(t *testing.T) {
	if _, err := Solve(Profile{AvailGPU: 1}, modelcfg.DecisionVars{Window: true}); err == nil {
		t.Fatal("empty profile must error")
	}
}

func TestSolverOptConstraint(t *testing.T) {
	// Slow CPU optimizer with a big pool: Eq. 3 forces a bigger window
	// so the per-layer update hides under the window's compute.
	p := uniformTestProfile(40, sim.Milliseconds(10), sim.Milliseconds(1), 1<<30)
	p.TOptCPU = sim.Milliseconds(20) // ×16 workers = 320ms per layer
	d, err := Solve(p, modelcfg.DecisionVars{Window: true})
	if err != nil {
		t.Fatal(err)
	}
	if d.MOpt < 2 {
		t.Fatalf("Eq.3 should demand window > 1, got %d", d.MOpt)
	}
	if d.M < d.MOpt {
		t.Fatal("chosen window must satisfy the optimizer constraint")
	}
}

func TestSolverWindowBytesIncludesPrefetchBuffer(t *testing.T) {
	p := uniformTestProfile(10, 1, 1, 1<<30)
	// m buffers of SBP plus one incoming SFP (constraint 1c).
	s := newSolver(p)
	if got := s.windowBytes(3); got != 3*200+100 {
		t.Fatalf("windowBytes(3) = %d, want 700", got)
	}
}

func TestUniformProfileFromModel(t *testing.T) {
	m := perf.NewModel(modelcfg.Config1p7B(), hw.V100Platform())
	p := UniformProfile(m, 8*hw.GB, 16)
	if len(p.Layers) != 20 {
		t.Fatalf("profile has %d layers", len(p.Layers))
	}
	l := p.Layers[0]
	if l.TBP <= l.TFP {
		t.Fatal("BP must exceed FP")
	}
	// BP offload moves weights+grads: TG2C ≈ 2× the FP weight transfer.
	if l.TG2C < l.TC2G {
		t.Fatal("BP offload must move at least the FP prefetch volume")
	}
	if l.SBP != 2*l.SFP {
		t.Fatalf("BP state (w+g) must be twice FP state: %d vs %d", l.SBP, l.SFP)
	}
	d, err := Solve(p, modelcfg.DecisionVars{Window: true})
	if err != nil {
		t.Fatal(err)
	}
	if d.M < 1 || d.M > 20 {
		t.Fatalf("window %d out of range", d.M)
	}
}

// Property: the solver's window always fits in the provided memory and
// satisfies P1/P2 whenever it is not memory-bound.
func TestPropertySolverSound(t *testing.T) {
	f := func(nRaw, fpRaw, c2gRaw uint8, memRaw uint16) bool {
		n := int(nRaw%40) + 2
		tFP := sim.Milliseconds(float64(fpRaw%50) + 1)
		tC2G := sim.Milliseconds(float64(c2gRaw%50) + 1)
		avail := int64(memRaw%2000)*10 + 400
		p := uniformTestProfile(n, tFP, tC2G, avail)
		d, err := Solve(p, modelcfg.DecisionVars{Window: true})
		if err != nil {
			return avail < 300 // only a too-small arena may error
		}
		if s := newSolver(p); s.windowBytes(d.M) > p.AvailGPU {
			return false
		}
		if !d.MemoryBound && d.M < max(d.MFP, max(d.MBP, d.MOpt)) && d.M < n {
			return false
		}
		return d.M >= 1 && d.M <= n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// engineProfile is the warm-up profile an engine solves over for a
// layers × hidden model (16 heads) on plat.
func engineProfile(layers, hidden int, plat hw.Platform) Profile {
	e := NewEngine(perf.NewModel(modelcfg.NewConfig(layers, hidden, 16), plat))
	return UniformProfile(e.Model, e.availableWindowBytes(), e.optWorkers())
}

// solverShapes are the decision-variable sets a method can declare.
var solverShapes = []modelcfg.DecisionVars{
	{Window: true},
	{Window: true, OptPlacement: true},
	{OptPlacement: true},
}

// checkSolverOracle requires Solve under every decision-variable
// shape to return exactly the loop oracle's decision and error on p.
func checkSolverOracle(t testing.TB, p Profile) {
	t.Helper()
	for _, vars := range solverShapes {
		got, err := Solve(p, vars)
		want, werr := oracleSolve(p, vars)
		if got != want || fmt.Sprint(err) != fmt.Sprint(werr) {
			t.Fatalf("Solve(%+v) = %+v, %v; oracle says %+v, %v", vars, got, err, want, werr)
		}
	}
}

// The running-totals solver decides exactly as the loop oracle on the
// engine's own profiles, on the paper's V100 and on the
// capacity-constrained platform where the placement split engages.
func TestSolverMatchesOracle(t *testing.T) {
	for _, plat := range []struct {
		name string
		plat hw.Platform
	}{{"v100", hw.V100Platform()}, {"constrained", constrainedPlatform()}} {
		for _, layers := range []int{20, 500, 3000} {
			for _, hidden := range []int{256, 1024, 2560} {
				t.Run(fmt.Sprintf("%s/l%d/h%d", plat.name, layers, hidden), func(t *testing.T) {
					checkSolverOracle(t, engineProfile(layers, hidden, plat.plat))
				})
			}
		}
	}
	e := constrainedEngine(true) // coopt_test.go's scenario
	checkSolverOracle(t, UniformProfile(e.Model, e.availableWindowBytes(), e.optWorkers()))
}

// BenchmarkSolve times the warm-up decision on the engine's profile of
// a deep, narrow model, with and without the co-optimized placement
// search.
func BenchmarkSolve(b *testing.B) {
	for _, layers := range []int{2000, 20000} {
		p := engineProfile(layers, 256, hw.V100Platform())
		for _, coopt := range []bool{false, true} {
			vars := modelcfg.DecisionVars{Window: true, OptPlacement: coopt}
			b.Run(fmt.Sprintf("layers=%d/coopt=%v", layers, coopt), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := Solve(p, vars); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
