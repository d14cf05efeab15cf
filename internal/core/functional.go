package core

import (
	"fmt"
	"sync"

	"stronghold/internal/autograd"
	"stronghold/internal/data"
	"stronghold/internal/nn"
	"stronghold/internal/optim"
)

// FunctionalTrainer trains a real (small-scale) GPT with the STRONGHOLD
// execution order: only a working window of Transformer blocks is
// "resident" at a time, blocks are fetched on demand and evicted behind
// use, and evicted blocks' Adam updates run asynchronously on a CPU
// worker pool (§III-E1) — with the next iteration's forward pass
// waiting on each block's update exactly as the runtime's prefetch
// does. Its purpose is the paper's correctness claim: "the asynchronous
// operations do not introduce stale model updates nor affect the
// training precision". Tests compare it bit-for-bit against fully
// resident training.
type FunctionalTrainer struct {
	Model  *nn.GPT
	Opt    *optim.Adam
	Window int

	nLayers  int
	layerIdx [][]int // block → parameter indices in Opt
	headIdx  []int   // resident (embedding/norm/head) parameter indices

	resident    []bool
	residentCnt int
	maxResident int
	fetches     int
	evictions   int

	updateDone []chan struct{} // per-block async update completion
	tasks      chan optTask    // block updates awaiting a worker
	wg         sync.WaitGroup
	// curLR is the learning rate for updates issued by the current
	// Step; LR schedules set it via SetLR before each iteration. Tasks
	// snapshot it at enqueue, so in-flight updates keep their step's
	// rate.
	curLR     float32
	workerErr error
	mu        sync.Mutex
	// deferUpdates suppresses update-on-evict during the non-final
	// micro-batches of gradient accumulation.
	deferUpdates bool
	// compress stores evicted layers in half precision (see
	// compress.go).
	compress  bool
	halfStore map[int][][]uint16
}

// NewFunctionalTrainer wraps model with the offloading execution order.
// window is the number of blocks kept resident; workers sizes the
// concurrent optimizer pool (1 reproduces the single-optimizer
// baseline).
func NewFunctionalTrainer(model *nn.GPT, cfg optim.AdamConfig, window, workers int) (*FunctionalTrainer, error) {
	n := model.Blocks.Len()
	if window < 1 || window > n {
		return nil, fmt.Errorf("core: window %d outside [1, %d]", window, n)
	}
	if workers < 1 {
		return nil, fmt.Errorf("core: need at least one optimizer worker")
	}
	t := &FunctionalTrainer{
		Model:    model,
		Opt:      optim.NewAdam(model.Parameters(), cfg),
		Window:   window,
		nLayers:  n,
		resident: make([]bool, n),
		tasks:    make(chan optTask, n),
		curLR:    cfg.LR,
	}
	// Map parameters to blocks. Parameter order is embedding, blocks,
	// final norm, head (see nn.GPT.Parameters).
	idx := 0
	embedCount := len(model.Embed.Parameters())
	for ; idx < embedCount; idx++ {
		t.headIdx = append(t.headIdx, idx)
	}
	for _, l := range model.Blocks.Layers() {
		var ids []int
		for range l.Parameters() {
			ids = append(ids, idx)
			idx++
		}
		t.layerIdx = append(t.layerIdx, ids)
	}
	for ; idx < len(model.Parameters()); idx++ {
		t.headIdx = append(t.headIdx, idx)
	}

	t.updateDone = make([]chan struct{}, n)
	for i := range t.updateDone {
		ch := make(chan struct{})
		close(ch) // no pending update before the first iteration
		t.updateDone[i] = ch
	}
	// First window resident at start (the §III-E1 invariant).
	for i := 0; i < window; i++ {
		t.resident[i] = true
	}
	t.residentCnt = window
	t.maxResident = window

	for w := 0; w < workers; w++ {
		t.wg.Add(1)
		go t.worker()
	}
	model.Blocks.RegisterHook(t.hook)
	return t, nil
}

// optTask is one queued layer update with the learning rate of the
// step that produced it.
type optTask struct {
	layer int
	lr    float32
}

// SetLR changes the learning rate for subsequent updates (LR
// schedules). In-flight updates keep the rate they were enqueued with.
func (t *FunctionalTrainer) SetLR(lr float64) { t.curLR = float32(lr) }

// worker consumes evicted blocks and applies their Adam updates.
func (t *FunctionalTrainer) worker() {
	defer t.wg.Done()
	for task := range t.tasks {
		for _, pi := range t.layerIdx[task.layer] {
			t.Opt.StepParamLR(pi, task.lr)
			t.Opt.Params()[pi].ZeroGrad()
		}
		if t.compress {
			t.compressLayer(task.layer)
		}
		t.mu.Lock()
		ch := t.updateDone[task.layer]
		t.mu.Unlock()
		close(ch)
	}
}

// hook implements the window movement on the autograd hook points.
func (t *FunctionalTrainer) hook(kind autograd.HookKind, i int, _ autograd.Module) {
	switch kind {
	case autograd.PreForward, autograd.PreBackward:
		t.fetch(i)
	case autograd.PostForward:
		// Slide forward: evict behind the window, but keep the tail
		// resident for BP (Fig. 3b).
		if i < t.nLayers-t.Window {
			t.evict(i, false)
		}
	case autograd.PostBackward:
		// Slide backward: evict + asynchronous CPU update, keeping the
		// head-of-model window resident for the next FP (Fig. 3c).
		if i >= t.Window {
			t.evict(i, !t.deferUpdates)
		}
	}
}

// fetch makes block i resident, first waiting for any in-flight update
// (this is what rules out stale parameters).
func (t *FunctionalTrainer) fetch(i int) {
	if t.resident[i] {
		return
	}
	t.mu.Lock()
	ch := t.updateDone[i]
	t.mu.Unlock()
	<-ch
	if t.compress {
		t.decompressLayer(i)
	}
	t.resident[i] = true
	t.residentCnt++
	t.fetches++
	if t.residentCnt > t.maxResident {
		t.maxResident = t.residentCnt
	}
}

// evict drops block i from the window; when update is true its Adam
// step is queued on the worker pool.
func (t *FunctionalTrainer) evict(i int, update bool) {
	if !t.resident[i] {
		return
	}
	t.resident[i] = false
	t.residentCnt--
	t.evictions++
	if update {
		t.mu.Lock()
		t.updateDone[i] = make(chan struct{})
		t.mu.Unlock()
		t.tasks <- optTask{layer: i, lr: t.curLR}
	}
}

// Step runs one training iteration and returns the loss. Resident
// blocks, embedding and head are updated synchronously ("on the GPU");
// evicted blocks update asynchronously and are awaited by the next
// Step's fetches.
func (t *FunctionalTrainer) Step(b data.Batch) float64 {
	return t.StepAccumulated([]data.Batch{b})
}

// StepAccumulated performs gradient accumulation over micro-batches:
// each contributes 1/k of the batch gradient; parameter updates — the
// asynchronous per-layer ones and the synchronous resident ones — run
// only after the final micro-batch, exactly once per call. Returns the
// mean micro-batch loss.
func (t *FunctionalTrainer) StepAccumulated(micro []data.Batch) float64 {
	if len(micro) == 0 {
		panic("core: StepAccumulated with no micro-batches")
	}
	scale := float32(1) / float32(len(micro))
	var lossSum float64
	for i, b := range micro {
		// Updates-on-evict engage only for the final micro-batch; the
		// earlier passes just accumulate gradients through the window.
		t.deferUpdates = i < len(micro)-1
		lossSum += t.Model.TrainStepScaled(b.Inputs, b.Targets, scale)
	}
	t.deferUpdates = false
	// GPU-side updates: the resident head-of-model window plus the
	// always-resident embedding/norm/head.
	for i := 0; i < t.Window; i++ {
		for _, pi := range t.layerIdx[i] {
			t.Opt.StepParamLR(pi, t.curLR)
			t.Opt.Params()[pi].ZeroGrad()
		}
	}
	for _, pi := range t.headIdx {
		t.Opt.StepParamLR(pi, t.curLR)
		t.Opt.Params()[pi].ZeroGrad()
	}
	return lossSum / float64(len(micro))
}

// Drain waits for all in-flight asynchronous updates.
func (t *FunctionalTrainer) Drain() {
	for i := range t.updateDone {
		t.mu.Lock()
		ch := t.updateDone[i]
		t.mu.Unlock()
		<-ch
	}
}

// Close drains the pool and stops the workers.
func (t *FunctionalTrainer) Close() {
	close(t.tasks)
	t.wg.Wait()
	t.Model.Blocks.ClearHooks()
}

// MaxResident returns the peak number of simultaneously resident
// blocks — the functional analogue of the GPU working-window footprint.
func (t *FunctionalTrainer) MaxResident() int { return t.maxResident }

// Fetches returns the number of block fetches ("prefetches") performed.
func (t *FunctionalTrainer) Fetches() int { return t.fetches }

// Evictions returns the number of block evictions ("offloads").
func (t *FunctionalTrainer) Evictions() int { return t.evictions }
