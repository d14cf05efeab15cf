// Package modelcfg describes paper-scale Transformer models
// analytically: Table I configurations, parameter counting, FLOP cost
// models, per-training-method memory models (the inputs to Figure 6),
// and the §III-F model-parallel vs data-parallel communication-volume
// model. The functional nn package trains real small models; this
// package reasons about billion-parameter ones.
package modelcfg

import (
	"fmt"
	"math"
)

// Config is a GPT-style Transformer configuration in the paper's
// parameterization (Table I).
type Config struct {
	Layers    int
	Hidden    int
	Heads     int
	SeqLen    int // 1024 throughout the evaluation (§III-F)
	Vocab     int // 30k throughout the evaluation (§III-F)
	BatchSize int // per-GPU batch size
	// ModelParallel is the tensor-model-parallel degree (Table I's last
	// column: 1 on the V100, 8 on the A10 cluster).
	ModelParallel int
}

// DefaultSeqLen and DefaultVocab are the §III-F evaluation constants.
const (
	DefaultSeqLen = 1024
	DefaultVocab  = 30000
)

// NewConfig builds a config with the paper's default sequence length,
// vocabulary, batch size 4 and no model parallelism.
func NewConfig(layers, hidden, heads int) Config {
	return Config{
		Layers: layers, Hidden: hidden, Heads: heads,
		SeqLen: DefaultSeqLen, Vocab: DefaultVocab,
		BatchSize: 4, ModelParallel: 1,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Layers <= 0 || c.Hidden <= 0 || c.Heads <= 0:
		return fmt.Errorf("modelcfg: non-positive layers/hidden/heads in %+v", c)
	case c.Hidden%c.Heads != 0:
		return fmt.Errorf("modelcfg: hidden %d not divisible by heads %d", c.Hidden, c.Heads)
	case c.SeqLen <= 0 || c.Vocab <= 0 || c.BatchSize <= 0:
		return fmt.Errorf("modelcfg: non-positive seq/vocab/batch in %+v", c)
	case c.ModelParallel <= 0:
		return fmt.Errorf("modelcfg: non-positive model parallelism in %+v", c)
	}
	return nil
}

// LayerParams returns the parameter count of one Transformer block:
// 12·h² weights (4h² attention + 8h² FFN, the §III-F constant) plus 13h
// biases and norms.
func (c Config) LayerParams() int64 {
	h := int64(c.Hidden)
	return 12*h*h + 13*h
}

// EmbeddingParams returns token + positional embedding parameters.
func (c Config) EmbeddingParams() int64 {
	return int64(c.Vocab)*int64(c.Hidden) + int64(c.SeqLen)*int64(c.Hidden)
}

// TotalParams returns the full model parameter count.
func (c Config) TotalParams() int64 {
	return int64(c.Layers)*c.LayerParams() + c.EmbeddingParams()
}

// ParamsBillion returns TotalParams in billions, the unit of Table I.
func (c Config) ParamsBillion() float64 { return float64(c.TotalParams()) / 1e9 }

// LayerParamsShard returns the per-GPU slice of one layer's parameters
// under tensor model parallelism — the paper's offloading unit in the
// MP>1 experiments (§III-C: "under tensor parallelism, this can be a
// sliced layer").
func (c Config) LayerParamsShard() int64 {
	return c.LayerParams() / int64(c.ModelParallel)
}

// Bytes-per-parameter constants for FP32 training (§V-D reports model
// sizes with FP32 representation).
const (
	BytesParam    = 4 // weights
	BytesGrad     = 4 // gradients
	BytesOptState = 8 // Adam momentum + variance
	// BytesModelState is the full per-parameter model-state footprint:
	// the paper's "model states" = parameters + gradients + optimizer
	// states.
	BytesModelState = BytesParam + BytesGrad + BytesOptState
	// BytesAdamTraffic is the memory traffic of one Adam update per
	// parameter: read and write the weight and both moments, read the
	// gradient. The update is memory-bound, so its duration on either
	// device is this traffic over the memory bandwidth.
	BytesAdamTraffic = 2*BytesParam + BytesGrad + 2*BytesOptState
)

// LayerStateBytes returns one layer's full model-state footprint
// (per-GPU shard).
func (c Config) LayerStateBytes() int64 {
	return c.LayerParamsShard() * BytesModelState
}

// LayerWeightBytes returns one layer shard's parameter bytes — what the
// working window moves per prefetch.
func (c Config) LayerWeightBytes() int64 {
	return c.LayerParamsShard() * BytesParam
}

// LayerGradBytes returns one layer shard's gradient bytes — what BP
// offloads per layer.
func (c Config) LayerGradBytes() int64 {
	return c.LayerParamsShard() * BytesGrad
}

// ActivationBytesPerLayer returns the boundary activation kept per
// layer with layer-wise activation checkpointing: bs·seq·h floats.
func (c Config) ActivationBytesPerLayer() int64 {
	return int64(c.BatchSize) * int64(c.SeqLen) * int64(c.Hidden) / int64(c.ModelParallel) * 4
}

// WorkingActivationBytes approximates the transient activation working
// set while recomputing one layer during BP: attention scores plus MLP
// intermediates, ≈ (34h + 2·heads·seq)·bs·seq bytes.
func (c Config) WorkingActivationBytes() int64 {
	perTok := 34*int64(c.Hidden) + 2*int64(c.Heads)*int64(c.SeqLen)
	return int64(c.BatchSize) * int64(c.SeqLen) * perTok / int64(c.ModelParallel) * 4
}

// ForwardFlopsPerLayer returns the FP FLOPs of one Transformer block
// shard for the configured batch: 24·bs·s·h² matmul FLOPs plus
// 4·bs·s²·h attention-score FLOPs.
func (c Config) ForwardFlopsPerLayer() float64 {
	bs, s, h := float64(c.BatchSize), float64(c.SeqLen), float64(c.Hidden)
	return (24*bs*s*h*h + 4*bs*s*s*h) / float64(c.ModelParallel)
}

// BackwardFlopsPerLayer returns BP FLOPs for one block shard: 2× the
// forward cost, plus one forward recomputation when activation
// checkpointing is on (the paper's footnote 2).
func (c Config) BackwardFlopsPerLayer(checkpointing bool) float64 {
	f := c.ForwardFlopsPerLayer()
	if checkpointing {
		return 3 * f
	}
	return 2 * f
}

// EmbeddingFlops returns FP FLOPs of the embedding + LM-head matmuls.
func (c Config) EmbeddingFlops() float64 {
	bs, s, h, v := float64(c.BatchSize), float64(c.SeqLen), float64(c.Hidden), float64(c.Vocab)
	return 2 * bs * s * h * v / float64(c.ModelParallel)
}

// KernelUtilization returns the fraction of the GPU's SM array one
// training worker's kernels can occupy at the given micro-batch size.
// Small batches under-fill the SMs — the headroom STRONGHOLD's
// multi-stream optimization (§IV-A) exploits. Calibrated so a single
// bs=4 worker runs near the 25–30% of peak that Megatron-LM achieves on
// V100-class FP32 training, saturating around 60% for large batches.
func KernelUtilization(batchSize int) float64 {
	return math.Min(0.60, 0.17+0.10*math.Log2(1+float64(batchSize)))
}

// MultiStreamCap is the aggregate SM utilization achievable by
// concurrent streams — below 1.0 because of scheduler serialization and
// memory-port contention. Together with KernelUtilization it bounds
// multi-streamed STRONGHOLD near the paper's 42–57% of hardware peak at
// its largest models (§VI-B) while allowing the 1.7–2.1× Fig. 11
// speedups at small ones.
const MultiStreamCap = 0.75
