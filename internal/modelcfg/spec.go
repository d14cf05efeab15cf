package modelcfg

import (
	"errors"
	"fmt"
	"math"
)

// MaxLayers bounds the depth a ConfigSpec may resolve to. It sits well
// above every depth the figures, goldens and host benchmarks use (the
// deepest is about 2,100 layers) and admits the 20,000-layer scale run,
// which simulates in a few seconds; deeper requests cost time and
// memory linear in the depth with no result worth having, so Resolve
// rejects them before any planning or simulation.
const MaxLayers = 20000

// ErrTooDeep is the error Resolve wraps when a spec resolves to more
// than MaxLayers layers.
var ErrTooDeep = errors.New("model too deep")

// ConfigSpec is the request-level model description shared by the
// public simulation API (stronghold.SimConfig) and the
// capacity-planning server (internal/serve): the handful of knobs a
// caller actually sets, with everything else defaulted to the paper's
// evaluation constants. Resolve turns it into a validated Config.
type ConfigSpec struct {
	// SizeBillions picks the layer count for a target parameter count
	// at the given hidden size (Table I's derivation). Ignored when
	// Layers is set.
	SizeBillions float64 `json:"size_billions,omitempty"`
	// Layers sets the depth directly and wins over SizeBillions.
	Layers int `json:"layers,omitempty"`
	// Hidden is the hidden width (default 2560, the §V-B sweep anchor).
	Hidden int `json:"hidden"`
	// BatchSize is the per-GPU batch size (default 4).
	BatchSize int `json:"batch_size"`
	// ModelParallel is the tensor-model-parallel degree (default 1).
	ModelParallel int `json:"model_parallel"`
}

// Canonical returns the spec with every default made explicit and the
// Layers-wins rule applied (SizeBillions zeroed when Layers is set).
// It is idempotent — Canonical(Canonical(s)) == Canonical(s) — which
// is what makes a hash of the canonical form a stable cache key.
func (s ConfigSpec) Canonical() ConfigSpec {
	if s.Hidden == 0 {
		s.Hidden = 2560
	}
	if s.BatchSize == 0 {
		s.BatchSize = 4
	}
	if s.ModelParallel == 0 {
		s.ModelParallel = 1
	}
	if s.Layers > 0 {
		s.SizeBillions = 0
	}
	return s
}

// Resolve canonicalizes the spec and builds the validated Config, with
// the paper's 16 attention heads. Negative or non-finite fields are
// rejected rather than treated as unset — the spec decodes untrusted
// request JSON. A config deeper than MaxLayers, whether set directly
// or derived from SizeBillions, is rejected with ErrTooDeep.
func (s ConfigSpec) Resolve() (Config, error) {
	if s.Layers < 0 || s.Hidden < 0 || s.BatchSize < 0 || s.ModelParallel < 0 ||
		s.SizeBillions < 0 || math.IsNaN(s.SizeBillions) || math.IsInf(s.SizeBillions, 0) {
		return Config{}, fmt.Errorf("modelcfg: negative or non-finite field in config spec %+v", s)
	}
	s = s.Canonical()
	var cfg Config
	switch {
	case s.Layers > 0:
		cfg = NewConfig(s.Layers, s.Hidden, 16)
		cfg.ModelParallel = s.ModelParallel
	case s.SizeBillions > 0:
		cfg = ConfigForSize(s.SizeBillions, s.Hidden, s.ModelParallel)
	default:
		return Config{}, fmt.Errorf("modelcfg: config spec needs SizeBillions or Layers")
	}
	if cfg.Layers > MaxLayers {
		return Config{}, fmt.Errorf("modelcfg: %w: %d layers exceeds the %d-layer limit (modelcfg.MaxLayers)",
			ErrTooDeep, cfg.Layers, MaxLayers)
	}
	cfg.BatchSize = s.BatchSize
	return cfg, cfg.Validate()
}

// MethodSummary is the registry row in wire form — what /v1/methods
// serves and what client tooling introspects. Field order is the JSON
// field order, so keep it stable.
type MethodSummary struct {
	Key         string   `json:"key"`
	Display     string   `json:"display"`
	Aliases     []string `json:"aliases,omitempty"`
	Engine      string   `json:"engine"`
	PlanDriven  bool     `json:"plan_driven"`
	SingleGPU   bool     `json:"single_gpu"`
	Distributed bool     `json:"distributed"`
	NVMe        bool     `json:"nvme"`
	Decisions   struct {
		Window       bool `json:"window"`
		OptPlacement bool `json:"opt_placement"`
	} `json:"decisions"`
}

// engineName renders the EngineKind for the wire.
func engineName(k EngineKind) string {
	switch k {
	case EngineCore:
		return "core"
	case EngineCluster:
		return "cluster"
	}
	return "baseline"
}

// MethodSummaries renders the whole registry in display order.
func MethodSummaries() []MethodSummary {
	out := make([]MethodSummary, 0, len(methods))
	for _, info := range methods {
		s := MethodSummary{
			Key:         info.Key,
			Display:     info.Display,
			Aliases:     info.Aliases,
			Engine:      engineName(info.Engine),
			PlanDriven:  info.PlanDriven(),
			SingleGPU:   info.SingleGPU,
			Distributed: info.Distributed,
			NVMe:        info.NVMe,
		}
		s.Decisions.Window = info.Decisions.Window
		s.Decisions.OptPlacement = info.Decisions.OptPlacement
		out = append(out, s)
	}
	return out
}
