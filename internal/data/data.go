// Package data generates deterministic synthetic token streams standing
// in for the paper's Wikipedia corpus. Throughput experiments never
// inspect token content — only tensor shapes — so a hash-derived stream
// preserves everything the evaluation measures while keeping runs
// reproducible.
package data

import (
	"fmt"

	"stronghold/internal/tensor"
)

// Batch is one training micro-batch: input ids and next-token targets,
// both [batch, seq] tensors of integral values.
type Batch struct {
	Inputs  *tensor.Tensor
	Targets *tensor.Tensor
}

// Loader produces an endless deterministic stream of batches.
type Loader struct {
	Vocab     int
	BatchSize int
	SeqLen    int
	rng       *tensor.RNG
	step      int
}

// NewLoader builds a loader; identical (vocab, batch, seq, seed) yield
// identical streams.
func NewLoader(vocab, batchSize, seqLen int, seed uint64) (*Loader, error) {
	if vocab < 2 {
		return nil, fmt.Errorf("data: vocab %d too small", vocab)
	}
	if batchSize <= 0 || seqLen <= 0 {
		return nil, fmt.Errorf("data: non-positive batch %d or seq %d", batchSize, seqLen)
	}
	return &Loader{Vocab: vocab, BatchSize: batchSize, SeqLen: seqLen, rng: tensor.NewRNG(seed)}, nil
}

// Next returns the next batch. Targets are the inputs shifted left by
// one with a fresh token in the final slot — the standard LM objective.
func (l *Loader) Next() Batch {
	l.step++
	n := l.BatchSize * l.SeqLen
	in := tensor.New(l.BatchSize, l.SeqLen)
	tgt := tensor.New(l.BatchSize, l.SeqLen)
	ids := make([]int, n+l.BatchSize)
	for i := range ids {
		ids[i] = l.rng.Intn(l.Vocab)
	}
	for b := 0; b < l.BatchSize; b++ {
		for s := 0; s < l.SeqLen; s++ {
			in.Set(float32(ids[b*(l.SeqLen+1)+s]), b, s)
			tgt.Set(float32(ids[b*(l.SeqLen+1)+s+1]), b, s)
		}
	}
	return Batch{Inputs: in, Targets: tgt}
}
