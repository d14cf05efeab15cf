package serve

import "stronghold/internal/modelcfg"

// Backend computes answers for canonicalized requests. The production
// implementation (internal/serve/backend) runs the deterministic
// simulator through the root stronghold package; tests substitute
// fakes to pin the HTTP layer's behavior without simulation cost.
//
// Backend calls MUST be pure functions of the canonical request —
// same request, same response, byte for byte — because the server
// caches marshaled bodies by canonical request hash and replays them
// verbatim.
type Backend interface {
	Solve(SolveRequest) (SolveResponse, error)
	Capacity(CapacityRequest) (CapacityResponse, error)
	WhatIf(WhatIfRequest) (WhatIfResponse, error)
}

// WindowReport is the §III-D working-window decision on the wire.
type WindowReport struct {
	M             int  `json:"m"`
	MForward      int  `json:"m_forward"`
	MBackward     int  `json:"m_backward"`
	MOptimizer    int  `json:"m_optimizer"`
	MemoryBound   bool `json:"memory_bound"`
	AsyncFeasible bool `json:"async_feasible"`
	Streams       int  `json:"streams"`
}

// SolveResponse is /v1/solve's body: the co-opted window + optimizer
// placement decision for the requested configuration.
type SolveResponse struct {
	Hash          string       `json:"hash"`
	Request       SolveRequest `json:"request"`
	ModelBillions float64      `json:"model_billions"`
	Window        WindowReport `json:"window"`
	// OptGPUFrac is the co-optimized GPU share of each offloaded
	// layer's optimizer update (zero with coopt off or when the fixed
	// placement wins).
	OptGPUFrac float64 `json:"opt_gpu_frac"`
}

// CapacityRow is one method's ceiling on the requested platform.
type CapacityRow struct {
	Method      string  `json:"method"`
	Display     string  `json:"display"`
	MaxBillions float64 `json:"max_billions"`
}

// CapacityResponse is /v1/capacity's body: the largest trainable
// model per method — Figure 6 as an API call.
type CapacityResponse struct {
	Hash     string          `json:"hash"`
	Request  CapacityRequest `json:"request"`
	Platform string          `json:"platform"`
	Rows     []CapacityRow   `json:"rows"`
}

// RunReport is one simulated steady-state iteration on the wire.
type RunReport struct {
	IterSeconds   float64 `json:"iter_seconds"`
	SamplesPerSec float64 `json:"samples_per_sec"`
	TFLOPS        float64 `json:"tflops"`
	Overlap       float64 `json:"overlap"`
	// Degraded-mode counters (zero on the clean run; baselines never
	// re-solve a window, but they reissue dropped copies).
	Retries        uint64 `json:"retries,omitempty"`
	DeadlineMisses uint64 `json:"deadline_misses,omitempty"`
	WindowResolves uint64 `json:"window_resolves,omitempty"`
	FinalWindow    int    `json:"final_window,omitempty"`
}

// WhatIfResponse is /v1/whatif's body: the same schedule clean and
// under the fault plan, plus the headline retention number.
type WhatIfResponse struct {
	Hash          string        `json:"hash"`
	Request       WhatIfRequest `json:"request"`
	ModelBillions float64       `json:"model_billions"`
	Clean         RunReport     `json:"clean"`
	Degraded      RunReport     `json:"degraded"`
	// RetentionPc is degraded throughput as a percentage of clean.
	RetentionPc float64 `json:"retention_pc"`
}

// MethodsResponse is /v1/methods's body: the offload-method registry
// in its wire form, whose bytes the methods.json golden pins.
type MethodsResponse struct {
	Methods []modelcfg.MethodSummary `json:"methods"`
}

// response is a simulation endpoint's body, which carries the hash of
// the canonical request it answers.
type response interface {
	withHash(hash string) any
}

func (r SolveResponse) withHash(hash string) any    { r.Hash = hash; return r }
func (r CapacityResponse) withHash(hash string) any { r.Hash = hash; return r }
func (r WhatIfResponse) withHash(hash string) any   { r.Hash = hash; return r }
