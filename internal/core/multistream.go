package core

import (
	"fmt"
	"sync"

	"stronghold/internal/comm"
	"stronghold/internal/data"
	"stronghold/internal/nn"
	"stronghold/internal/optim"
	"stronghold/internal/tensor"
)

// MultiStreamTrainer is the functional counterpart of §IV-A: data
// parallelism inside a single GPU. The training batch is split into
// micro-batches processed by concurrent workers ("executors" bound to
// CUDA streams); gradients are all-reduced before the parameter update,
// so model consistency is exactly that of data-parallel training. Each
// worker holds a replica whose parameters are kept bit-identical —
// standing in for the single shared parameter copy of the real system
// (Go needs separate autograd caches per concurrent worker; the test
// suite asserts the replicas never diverge, which is the property the
// shared copy provides for free).
type MultiStreamTrainer struct {
	replicas []*nn.GPT
	opts     []*optim.Adam
	workers  int
}

// NewMultiStreamTrainer builds workers replicas of the model described
// by cfg. All replicas start bit-identical (same seed).
func NewMultiStreamTrainer(cfg nn.GPTConfig, adam optim.AdamConfig, workers int) (*MultiStreamTrainer, error) {
	if workers < 1 {
		return nil, fmt.Errorf("core: need at least one stream worker")
	}
	t := &MultiStreamTrainer{workers: workers}
	for w := 0; w < workers; w++ {
		g, err := nn.NewGPT(cfg)
		if err != nil {
			return nil, err
		}
		t.replicas = append(t.replicas, g)
		t.opts = append(t.opts, optim.NewAdam(g.Parameters(), adam))
	}
	return t, nil
}

// Workers returns the stream worker count.
func (t *MultiStreamTrainer) Workers() int { return t.workers }

// Step splits the batch across workers, runs forward+backward
// concurrently, all-reduces gradients, and applies the optimizer on
// every replica. It returns the batch-mean loss. The batch size must be
// divisible by the worker count.
func (t *MultiStreamTrainer) Step(b data.Batch) (float64, error) {
	bs := b.Inputs.Dim(0)
	if bs%t.workers != 0 {
		return 0, fmt.Errorf("core: batch %d not divisible by %d workers", bs, t.workers)
	}
	micro := bs / t.workers
	seq := b.Inputs.Dim(1)

	losses := make([]float64, t.workers)
	var wg sync.WaitGroup
	for w := 0; w < t.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			in := sliceRows(b.Inputs, w*micro, micro, seq)
			tgt := sliceRows(b.Targets, w*micro, micro, seq)
			losses[w] = t.replicas[w].TrainStep(in, tgt)
		}(w)
	}
	wg.Wait()

	// All-reduce gradients across workers (§IV-A: "an all-reduce
	// operation to synchronize the gradients among parallel training
	// workers before performing parameter updates").
	grads := make([][]*tensor.Tensor, t.workers)
	for w, g := range t.replicas {
		for _, p := range g.Parameters() {
			grads[w] = append(grads[w], p.Grad)
		}
	}
	if err := comm.AllReduceTensors(grads); err != nil {
		return 0, err
	}
	// Each worker's loss was a micro-batch mean; the summed gradient
	// must be scaled to the batch mean.
	scale := float32(1) / float32(t.workers)
	for _, g := range t.replicas {
		for _, p := range g.Parameters() {
			p.Grad.ScaleInPlace(scale)
		}
	}
	for w, opt := range t.opts {
		opt.Step()
		t.replicas[w].ZeroGrad()
	}
	var mean float64
	for _, l := range losses {
		mean += l
	}
	return mean / float64(t.workers), nil
}

// InSync reports whether all replicas hold bit-identical parameters —
// the invariant standing in for the real system's single parameter
// copy.
func (t *MultiStreamTrainer) InSync() bool {
	ref := t.replicas[0].Parameters()
	for _, g := range t.replicas[1:] {
		ps := g.Parameters()
		for i := range ref {
			if !ref[i].Value.Equal(ps[i].Value) {
				return false
			}
		}
	}
	return true
}

// sliceRows copies rows [start, start+count) of a [batch, seq] tensor.
func sliceRows(t *tensor.Tensor, start, count, seq int) *tensor.Tensor {
	out := tensor.New(count, seq)
	copy(out.Data(), t.Data()[start*seq:(start+count)*seq])
	return out
}
