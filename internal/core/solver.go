// Package core implements the STRONGHOLD runtime: the analytical
// working-window solver (§III-D), the discrete-event offloading engine
// that reproduces the paper's performance experiments, the functional
// (real-tensor) offload runtime proving semantic equivalence, the
// concurrent CPU optimizer pool (§III-E1), the multi-stream executor
// (§IV-A), the NVMe tier (§III-G), and the forward-only inference mode
// used for knowledge distillation (§VI-D3).
package core

import (
	"fmt"

	"stronghold/internal/modelcfg"
	"stronghold/internal/perf"
	"stronghold/internal/sim"
)

// LayerProfile is the per-layer measurement gathered during the warm-up
// phase (§III-B): compute times, transfer times and state sizes for one
// layer — the inputs to formulations P1 and P2.
type LayerProfile struct {
	TFP  sim.Time // t_fp
	TBP  sim.Time // t_bp (includes checkpoint recompute)
	TC2G sim.Time // t_c2g
	TG2C sim.Time // t_g2c
	SFP  int64    // s_fp: bytes the layer occupies during FP
	SBP  int64    // s_bp: bytes during BP (weights + gradients)
}

// Profile is a whole-model warm-up profile.
type Profile struct {
	Layers  []LayerProfile
	TAsync  sim.Time // t_async
	TOptGPU sim.Time // t_opt_gpu per layer
	TOptCPU sim.Time // t_opt_cpu per layer for one worker at full bandwidth
	// AvailGPU is S_avail: device bytes available to the working window
	// after resident layers, activations and workspace.
	AvailGPU int64
	// OptWorkers is the concurrent optimizer pool size used when
	// evaluating the parameter-update constraint (Eq. 3).
	OptWorkers int
	// OptPerTaskStretch is the per-task slowdown of one worker's update
	// relative to TOptCPU (full-socket bandwidth): a single thread
	// drives only a fraction of the socket, and W workers share it —
	// so the stretch is max(W, socketBW/perThreadBW). It must match the
	// engine's cpuOptDuration so Eq. 3 models the real chain.
	OptPerTaskStretch int
	// MomBytes is one layer's optimizer-moment payload, and MomH2D /
	// MomD2H its PCIe transfer times — the price of moving a layer's
	// update share to the GPU when the solver co-optimizes optimizer
	// placement (Solve with DecisionVars.OptPlacement).
	MomBytes       int64
	MomH2D, MomD2H sim.Time
}

// UniformProfile builds a Profile from the analytic cost model — the
// homogeneous-layer case the paper calls out ("most of the layers are
// homogeneous with the same number of parameters").
func UniformProfile(m perf.Model, availGPU int64, optWorkers int) Profile {
	lt := m.Layer()
	layers := make([]LayerProfile, m.Cfg.Layers)
	weights := m.Cfg.LayerWeightBytes()
	grads := m.Cfg.LayerGradBytes()
	for i := range layers {
		layers[i] = LayerProfile{
			TFP:  lt.FP,
			TBP:  lt.BP,
			TC2G: lt.C2G,
			// BP offloads weights and gradients together (Fig. 3c ②).
			TG2C: lt.G2C + sim.Time(float64(grads)/float64(weights)*float64(lt.G2C)),
			SFP:  weights,
			SBP:  weights + grads,
		}
	}
	bwRatio := int(m.Plat.CPU.MemBandwidth / perWorkerCap(m.Plat.CPU))
	// Moment chunks (Adam m+v) move at the same PCIe bandwidth as the
	// weight prefetch, so their transfer time scales off TC2G by the
	// byte ratio (per-transfer latency is negligible at layer sizes).
	momBytes := m.Cfg.LayerParamsShard() * modelcfg.BytesOptState
	momXfer := sim.Time(float64(momBytes) / float64(weights) * float64(lt.C2G))
	return Profile{
		Layers:            layers,
		TAsync:            lt.Async,
		TOptGPU:           lt.OptGPU,
		TOptCPU:           lt.OptCPU,
		AvailGPU:          availGPU,
		OptWorkers:        optWorkers,
		OptPerTaskStretch: max(optWorkers, bwRatio),
		MomBytes:          momBytes,
		MomH2D:            momXfer,
		MomD2H:            momXfer,
	}
}

// WindowDecision is the solver's output.
type WindowDecision struct {
	M int // chosen working-window size (layers)
	// MFP and MBP are the minimal windows satisfying P1 and P2.
	MFP, MBP int
	// MOpt is the minimal window satisfying the parameter-update
	// constraint (Eq. 3).
	MOpt int
	// MemoryBound reports whether GPU memory forced a smaller window
	// than the constraints wanted ("STRONGHOLD still uses the largest
	// possible m … but the training efficiency may be sub-optimal").
	MemoryBound bool
	// AsyncFeasible is the Eq. 5 check: 5·n·t_async ≤ (n−m)·t_opt_gpu.
	AsyncFeasible bool
}

// solver answers the §III-D window questions for one profile from
// running totals: each column's entry i totals layers [0, i), so a
// window's total over layers [i, j) is one subtraction.
type solver struct {
	Profile
	fp, bp []sim.Time // forward and backward compute
	// p1 is P1's window traffic: the prefetch plus the weights' share
	// of the BP offload. p2 is P2's: the prefetch plus the whole offload.
	p1, p2 []sim.Time
	sbp    []int64 // BP-sized bytes (weights + gradients)
}

func newSolver(p Profile) solver {
	n := len(p.Layers) + 1
	cols := make([]sim.Time, 5*n)
	s := solver{Profile: p, fp: cols[:n], bp: cols[n : 2*n], p1: cols[2*n : 3*n], p2: cols[3*n : 4*n], sbp: cols[4*n:]}
	for i := range p.Layers {
		l := &p.Layers[i]
		s.fp[i+1] = s.fp[i] + l.TFP
		s.bp[i+1] = s.bp[i] + l.TBP
		s.p1[i+1] = s.p1[i] + l.TC2G + sim.Time(float64(l.SFP)/float64(l.SBP)*float64(l.TG2C))
		s.p2[i+1] = s.p2[i] + l.TC2G + l.TG2C
		s.sbp[i+1] = s.sbp[i] + l.SBP
	}
	return s
}

// window finds the smallest working-window size m satisfying
// formulation P1 (FP prefetch hiding, Eq. 1), P2 (BP offload hiding,
// Eq. 2) and the CPU parameter-update constraint (Eq. 3), then verifies
// the async-overhead feasibility condition (Eq. 5). When memory cannot
// accommodate that m, the largest memory-feasible window is returned
// with MemoryBound set.
func (s *solver) window() (WindowDecision, error) {
	if len(s.Layers) == 0 {
		return WindowDecision{}, fmt.Errorf("core: empty profile")
	}
	if s.AvailGPU <= 0 {
		return WindowDecision{}, fmt.Errorf("core: no GPU memory available for the window")
	}

	memOK := func(m int) bool { return s.windowBytes(m) <= s.AvailGPU }
	if !memOK(1) {
		return WindowDecision{}, fmt.Errorf("core: even a single-layer window (%d bytes) exceeds available GPU memory (%d)",
			s.windowBytes(1), s.AvailGPU)
	}

	d := WindowDecision{
		MFP: s.minWindow(s.fpWindowOK),
		MBP: s.minWindow(s.bpWindowOK),
		// Eq. 3 with the whole update on the CPU pool.
		MOpt: s.minWindow(func(m int) bool { return s.chainExcess(m, 0) == 0 }),
	}
	m := max(d.MFP, d.MBP, d.MOpt)
	for m > 1 && !memOK(m) {
		m--
		d.MemoryBound = true
	}
	d.M = m
	d.AsyncFeasible = s.asyncFeasible(m)
	return d, nil
}

// minWindow returns the smallest m in [1, n] satisfying ok, or n.
func (s *solver) minWindow(ok func(m int) bool) int {
	n := len(s.Layers)
	for m := 1; m < n; m++ {
		if ok(m) {
			return m
		}
	}
	return n
}

// asyncFeasible is the Eq. 5 check: 5·n·t_async ≤ (n−m)·t_opt_gpu.
func (s *solver) asyncFeasible(m int) bool {
	n := len(s.Layers)
	return 5*sim.Time(n)*s.TAsync <= sim.Time(n-m)*s.TOptGPU
}

// windowBytes returns the GPU bytes an m-layer window needs, including
// the (1c) prefetch buffer for the layer just outside the window. BP
// sizing (weights+grads) dominates inside the window.
func (s *solver) windowBytes(m int) int64 {
	n := len(s.Layers)
	return s.sbp[min(m, n)] + s.Layers[min(m, n-1)].SFP
}

// fpWindowOK is P1 at window size m: at every window position, the
// window's forward compute covers both the incoming prefetch of layer
// j (1b) and the window's own two-way traffic with buffer recycling
// (1d).
func (s *solver) fpWindowOK(m int) bool {
	for j := m; j < len(s.Layers); j++ {
		fp := s.fp[j] - s.fp[j-m]
		if fp < s.Layers[j].TC2G || fp < s.p1[j]-s.p1[j-m] {
			return false
		}
	}
	return true
}

// bpWindowOK is P2 analogously for the backward direction: the window
// above leaving layer j hides its offload (2b) and the window's
// two-way traffic (2d) under BP compute.
func (s *solver) bpWindowOK(m int) bool {
	for j := 0; j+m < len(s.Layers); j++ {
		bp := s.bp[j+m+1] - s.bp[j+1]
		if bp < s.Layers[j].TG2C || bp < s.p2[j+m+1]-s.p2[j+1] {
			return false
		}
	}
	return true
}

// Decision is the co-optimizing solver's output: the §III-D window
// decision plus the fractional optimizer placement split.
type Decision struct {
	WindowDecision
	// OptGPUFrac is g: the share of each offloaded layer's Adam update
	// executed on the GPU (the remaining 1−g stays on the CPU pool).
	// Zero reproduces the paper's fixed placement.
	OptGPUFrac float64
	// Streams is k, the multi-stream worker count a run at window M
	// uses (§IV-A): Engine.SolvedDecision sets it, Solve leaves it 0.
	Streams int
}

// optFracGrid is the placement search resolution: g is swept over
// {0, 1/16, …, 12/16}. The cap below 1 keeps a CPU share on every
// split layer, so the host master copy stays warm and the fractional
// plan ops always partition the update.
const (
	optFracSteps = 16
	optFracMax   = 12
)

// coOptMargin is the required modeled improvement before the solver
// moves off the paper's fixed placement: the score is a bound, not a
// simulation, and marginal predicted wins (overlapped traffic, partial
// stalls) do not reliably survive contact with the engine. 5% keeps
// every engagement a real one.
const coOptMargin = 0.05

// Solve co-optimizes the method's declared decision variables: always
// the working-window size m (solver.window), and — when
// vars.OptPlacement is set — the GPU/CPU optimizer split g. The joint
// search keeps the P1/P2 prefetch-hiding minima as a structural floor
// on m, scores each memory-feasible (m, g) with a roofline of the
// iteration's saturable resources plus the Eq. 3 chain excess the
// window fails to cover, and keeps the paper's fixed-placement
// decision unless a candidate scores strictly better; ties resolve to
// the smaller g, then the smaller m, so the decision is deterministic.
// Each of the 13·(n−m+1) candidates costs O(1) from the running totals.
func Solve(p Profile, vars modelcfg.DecisionVars) (Decision, error) {
	s := newSolver(p)
	base, err := s.window()
	if err != nil {
		return Decision{}, err
	}
	d := Decision{WindowDecision: base}
	if !vars.OptPlacement {
		return d, nil
	}
	n := len(s.Layers)
	// The placement split never shrinks the window below the paper's
	// fixed-placement decision: smaller windows re-expose the P1/P2
	// hiding constraints the score only approximates. Co-optimization
	// moves the split and, when that relaxes Eq. 3, grows m.
	floor := base.M
	bestT := sim.Time(float64(s.score(base.M, 0)) * (1 - coOptMargin))
	engaged := false
	for gi := 0; gi <= optFracMax; gi++ {
		g := float64(gi) / optFracSteps
		for m := floor; m <= n; m++ {
			if !vars.Window && m != base.M {
				continue
			}
			if s.windowBytes(m)+s.placementBytes(g) > s.AvailGPU {
				continue
			}
			if t := s.score(m, g); t < bestT {
				bestT = t
				engaged = true
				d.M, d.OptGPUFrac = m, g
				d.MemoryBound = s.windowBytes(m+1)+s.placementBytes(g) > s.AvailGPU &&
					s.chainExcess(m, g) > 0
			}
		}
	}
	if engaged {
		d.AsyncFeasible = s.asyncFeasible(d.M)
	}
	return d, nil
}

// stretch is the per-worker update's slowdown with bandwidth sharing
// and the per-thread bandwidth ceiling.
func (s *solver) stretch() int {
	return max(s.OptPerTaskStretch, s.OptWorkers, 1)
}

// score bounds one (m, g) candidate's iteration time below by its GPU
// compute (kernels + resident updates + the g-share of offloaded
// updates), its PCIe traffic (window recycling + the moment chunks g
// moves), and the CPU optimizer pool's throughput on the 1−g share —
// plus, when the window is too small to hide the per-layer update
// chain (Eq. 3 violated, the capacity-constrained regime), the
// uncovered chain excess that stalls the next iteration's prefetch
// front.
func (s *solver) score(m int, g float64) sim.Time {
	n := len(s.Layers)
	offloaded := n - m
	compute := s.fp[n] + s.bp[n] + sim.Time(m)*s.TOptGPU + sim.Time(g*float64(offloaded)*float64(s.TOptGPU))
	traffic := 2*s.p2[offloaded] + sim.Time(g*float64(offloaded)*float64(s.MomH2D+s.MomD2H))
	workers := max(s.OptWorkers, 1)
	cpu := sim.Time((1 - g) * float64(offloaded) * float64(s.TOptCPU) * float64(s.stretch()) / float64(workers))
	return max(compute, traffic, cpu) + s.chainExcess(m, g)
}

// chainExcess is the part of one offloaded layer's update chain the
// m-layer window cannot cover (Eq. 3 with the g-split chain). The
// chain — gradient offload, the update (the CPU pool's 1−g share at
// its per-worker bandwidth, or the GPU's g share with its moment
// round trip, whichever is longer), re-prefetch, and the asynchronous
// call overheads along the way — must complete within the compute the
// window buys before the layer is needed again by the next
// iteration's forward pass. The excess is zero when it does, positive
// when every re-prefetch of an updated layer stalls behind it.
func (s *solver) chainExcess(m int, g float64) sim.Time {
	if m >= len(s.Layers) {
		return 0
	}
	cpuHalf := sim.Time((1 - g) * float64(s.TOptCPU) * float64(s.stretch()))
	gpuHalf := sim.Time(g * float64(s.MomH2D+s.MomD2H+s.TOptGPU))
	chain := s.Layers[0].TG2C + s.Layers[0].TC2G + 5*s.TAsync + max(cpuHalf, gpuHalf)
	cover := s.fp[m] + s.bp[m] + sim.Time(m)*s.TOptGPU
	if chain <= cover {
		return 0
	}
	return chain - cover
}

// placementBytes is the extra device memory a g-split needs: two
// staging buffers (one updating, one in flight) of the g-share of a
// layer's moment payload.
func (s *solver) placementBytes(g float64) int64 {
	if g == 0 {
		return 0
	}
	return 2 * int64(g*float64(s.MomBytes))
}
