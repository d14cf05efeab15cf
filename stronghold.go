// Package stronghold is the public API of the STRONGHOLD reproduction:
// fast and affordable billion-scale deep learning model training via
// dynamic CPU-GPU offloading (Sun et al., SC 2022).
//
// The package exposes two coupled capabilities:
//
//   - Functional training (Trainer, MultiStreamTrainer, Distill):
//     real tensor math on small-scale GPT models executed with
//     STRONGHOLD's working-window order — fetch-ahead, evict-behind,
//     asynchronous CPU optimizer actors — with semantics bit-identical
//     to conventional resident training.
//
//   - Performance simulation (Simulate, MaxTrainableBillions,
//     PlanWindow): a discrete-event model of the paper's V100 server
//     and A10 cluster that reproduces the evaluation's tables and
//     figures at billion-parameter scale.
//
// See the examples/ directory for runnable programs and DESIGN.md for
// the system inventory.
package stronghold

import (
	"fmt"
	"io"

	"stronghold/internal/core"
	"stronghold/internal/data"
	"stronghold/internal/nn"
	"stronghold/internal/optim"
	"stronghold/internal/tensor"
)

// TrainerConfig describes a functional (real-math) training setup.
type TrainerConfig struct {
	// Model shape.
	Vocab  int // vocabulary size (≥2)
	SeqLen int // sequence length per sample
	Hidden int // hidden width (multiple of Heads)
	Heads  int // attention heads
	Layers int // Transformer blocks
	Seed   uint64

	// STRONGHOLD runtime parameters.
	Window           int // resident blocks; 0 = Layers (fully resident)
	OptimizerWorkers int // concurrent CPU optimizer actors; 0 = 4
	// CheckpointEvery enables activation checkpointing with the given
	// interval (0 disables). Must not exceed Window (§III-C).
	CheckpointEvery int

	// Optimizer hyperparameters (zero values take Adam defaults).
	LearningRate float64
	WeightDecay  float64
	// Schedule, when set, overrides LearningRate per step (e.g.
	// WarmupCosine — the Megatron-style schedule of §V-B).
	Schedule Schedule

	// Batching.
	BatchSize int
	// GradAccumulation runs each Step over this many micro-batches,
	// applying one update (0/1 = no accumulation).
	GradAccumulation int
	// CompressOffload stores evicted layers in half precision —
	// trading exactness for half the host footprint (see
	// internal/core/compress.go).
	CompressOffload bool
}

func (c TrainerConfig) withDefaults() TrainerConfig {
	if c.Window == 0 {
		c.Window = c.Layers
	}
	if c.OptimizerWorkers == 0 {
		c.OptimizerWorkers = 4
	}
	if c.LearningRate == 0 {
		c.LearningRate = 1e-3
	}
	if c.BatchSize == 0 {
		c.BatchSize = 4
	}
	if c.GradAccumulation == 0 {
		c.GradAccumulation = 1
	}
	return c
}

func (c TrainerConfig) adam() optim.AdamConfig {
	a := optim.DefaultAdamConfig()
	a.LR = float32(c.LearningRate)
	a.WeightDecay = float32(c.WeightDecay)
	return a
}

func (c TrainerConfig) gpt() nn.GPTConfig {
	return nn.GPTConfig{
		Vocab: c.Vocab, MaxSeq: c.SeqLen, Hidden: c.Hidden,
		Heads: c.Heads, Layers: c.Layers, Seed: c.Seed,
	}
}

// batchSource abstracts the synthetic and text data loaders.
type batchSource interface {
	Next() data.Batch
}

// Trainer trains a GPT model with the STRONGHOLD execution order.
type Trainer struct {
	cfg    TrainerConfig
	inner  *core.FunctionalTrainer
	loader batchSource
	steps  int
}

// NewTrainer builds a model and its offloading runtime. It rejects a
// schedule whose Validate method (WarmupCosine's, WarmupLinear's)
// reports an error.
func NewTrainer(cfg TrainerConfig) (*Trainer, error) {
	cfg = cfg.withDefaults()
	if s, ok := cfg.Schedule.(interface{ Validate() error }); ok {
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("stronghold: schedule: %w", err)
		}
	}
	model, err := nn.NewGPT(cfg.gpt())
	if err != nil {
		return nil, err
	}
	if cfg.CheckpointEvery > 0 {
		if cfg.CheckpointEvery > cfg.Window {
			return nil, fmt.Errorf("stronghold: checkpoint interval %d exceeds window %d (§III-C)",
				cfg.CheckpointEvery, cfg.Window)
		}
		model.Blocks.SetActivationCheckpointing(cfg.CheckpointEvery)
	}
	inner, err := core.NewFunctionalTrainer(model, cfg.adam(), cfg.Window, cfg.OptimizerWorkers)
	if err != nil {
		return nil, err
	}
	if cfg.CompressOffload {
		if err := inner.EnableCompressedOffload(); err != nil {
			inner.Close()
			return nil, err
		}
	}
	loader, err := data.NewLoader(cfg.Vocab, cfg.BatchSize, cfg.SeqLen, cfg.Seed+1)
	if err != nil {
		inner.Close()
		return nil, err
	}
	return &Trainer{cfg: cfg, inner: inner, loader: loader}, nil
}

// Step trains on the next synthetic batch (or, with GradAccumulation
// k, on k micro-batches with a single update) and returns the loss.
func (t *Trainer) Step() float64 {
	t.applySchedule()
	t.steps++
	k := t.cfg.GradAccumulation
	if k <= 1 {
		return t.inner.Step(t.loader.Next())
	}
	micro := make([]data.Batch, k)
	for i := range micro {
		micro[i] = t.loader.Next()
	}
	return t.inner.StepAccumulated(micro)
}

// StepOn trains on caller-provided token ids ([batch][seq] inputs and
// next-token targets) and returns the loss.
func (t *Trainer) StepOn(inputs, targets [][]int) (float64, error) {
	in, err := idsTensor(inputs, t.cfg.Vocab)
	if err != nil {
		return 0, err
	}
	tgt, err := idsTensor(targets, t.cfg.Vocab)
	if err != nil {
		return 0, err
	}
	if !in.SameShape(tgt) {
		return 0, fmt.Errorf("stronghold: inputs %v and targets %v differ in shape", in.Shape(), tgt.Shape())
	}
	t.applySchedule()
	t.steps++
	return t.inner.Step(data.Batch{Inputs: in, Targets: tgt}), nil
}

// applySchedule sets this step's learning rate from the configured
// schedule (0-based step index).
func (t *Trainer) applySchedule() {
	if t.cfg.Schedule != nil {
		t.inner.SetLR(t.cfg.Schedule.LR(t.steps))
	}
}

// Steps returns the number of training steps performed.
func (t *Trainer) Steps() int { return t.steps }

// NumParams returns the model's trainable parameter count.
func (t *Trainer) NumParams() int64 { return t.inner.Model.NumParams() }

// PeakResidentBlocks reports the largest number of simultaneously
// resident Transformer blocks — the working-window footprint.
func (t *Trainer) PeakResidentBlocks() int { return t.inner.MaxResident() }

// Transfers returns the cumulative (fetches, evictions) of the window
// runtime.
func (t *Trainer) Transfers() (fetches, evictions int) {
	return t.inner.Fetches(), t.inner.Evictions()
}

// Close drains asynchronous optimizer work and stops the worker pool.
func (t *Trainer) Close() {
	t.inner.Drain()
	t.inner.Close()
}

// Save writes the model parameters to w (after draining in-flight
// optimizer updates) in the repository's checkpoint format. Optimizer
// moments are not saved; resuming starts Adam fresh — the usual
// convention for fine-tuning from a pre-trained model, STRONGHOLD's
// primary use case (§I).
func (t *Trainer) Save(w io.Writer) error {
	t.inner.Drain()
	return nn.SaveParameters(w, t.inner.Model.Parameters())
}

// NewTextTrainer builds a trainer over a real text corpus with
// byte-level tokenization (Vocab is forced to 256). Step draws random
// corpus windows.
func NewTextTrainer(cfg TrainerConfig, corpus string) (*Trainer, error) {
	cfg.Vocab = data.TextVocab
	t, err := NewTrainer(cfg)
	if err != nil {
		return nil, err
	}
	loader, err := data.NewTextLoader(corpus, t.cfg.BatchSize, t.cfg.SeqLen, t.cfg.Seed+1)
	if err != nil {
		t.Close()
		return nil, err
	}
	t.loader = loader
	return t, nil
}

// Generate autoregressively samples n continuation tokens from the
// trained model (temperature 0 = greedy). In-flight optimizer updates
// are drained first so generation sees consistent parameters. The
// KV-cached decode path is used when the context allows it (O(t) per
// token), falling back to full re-forwarding otherwise.
func (t *Trainer) Generate(prompt []int, n int, temperature float64) ([]int, error) {
	t.inner.Drain()
	rng := tensor.NewRNG(t.cfg.Seed + uint64(t.steps) + 2)
	if len(prompt)+n <= t.cfg.SeqLen {
		if out, err := t.inner.Model.GenerateFast(prompt, n, temperature, rng); err == nil {
			return out, nil
		}
		rng = tensor.NewRNG(t.cfg.Seed + uint64(t.steps) + 2) // fresh stream for the fallback
	}
	return t.inner.Model.Generate(prompt, n, temperature, rng)
}

// NewTrainerFromCheckpoint builds a trainer and initializes its model
// parameters from a checkpoint written by Save. The configuration's
// model shape must match the checkpoint.
func NewTrainerFromCheckpoint(cfg TrainerConfig, r io.Reader) (*Trainer, error) {
	t, err := NewTrainer(cfg)
	if err != nil {
		return nil, err
	}
	if err := nn.LoadParameters(r, t.inner.Model.Parameters()); err != nil {
		t.Close()
		return nil, fmt.Errorf("stronghold: restoring checkpoint: %w", err)
	}
	return t, nil
}

func idsTensor(rows [][]int, vocab int) (*tensor.Tensor, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, fmt.Errorf("stronghold: empty token batch")
	}
	seq := len(rows[0])
	out := tensor.New(len(rows), seq)
	for r, row := range rows {
		if len(row) != seq {
			return nil, fmt.Errorf("stronghold: ragged batch: row %d has %d tokens, want %d", r, len(row), seq)
		}
		for s, id := range row {
			if id < 0 || id >= vocab {
				return nil, fmt.Errorf("stronghold: token %d out of vocab %d", id, vocab)
			}
			out.Set(float32(id), r, s)
		}
	}
	return out, nil
}
