package core

import (
	"testing"

	"stronghold/internal/data"
	"stronghold/internal/nn"
	"stronghold/internal/optim"
)

func smallGPT(t *testing.T, layers int) *nn.GPT {
	t.Helper()
	g, err := nn.NewGPT(nn.GPTConfig{
		Vocab: 37, MaxSeq: 16, Hidden: 16, Heads: 2, Layers: layers, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func loader(t *testing.T) *data.Loader {
	t.Helper()
	l, err := data.NewLoader(37, 2, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestOffloadBitEqualToResident is the paper's central correctness
// claim: dynamic offloading with asynchronous CPU updates must not
// change training results at all. We train the same model resident and
// offloaded (every window size, several worker counts) and demand
// bit-identical losses and parameters.
func TestOffloadBitEqualToResident(t *testing.T) {
	const layers, iters = 6, 4
	for _, window := range []int{1, 2, 3, 5, 6} {
		for _, workers := range []int{1, 4} {
			ref := newResidentTrainer(smallGPT(t, layers), optim.DefaultAdamConfig())
			refLoader := loader(t)
			var refLosses []float64
			for i := 0; i < iters; i++ {
				refLosses = append(refLosses, ref.Step(refLoader.Next()))
			}

			off, err := NewFunctionalTrainer(smallGPT(t, layers), optim.DefaultAdamConfig(), window, workers)
			if err != nil {
				t.Fatal(err)
			}
			offLoader := loader(t)
			for i := 0; i < iters; i++ {
				got := off.Step(offLoader.Next())
				if got != refLosses[i] {
					t.Fatalf("window=%d workers=%d iter %d: loss %v != resident %v",
						window, workers, i, got, refLosses[i])
				}
			}
			off.Drain()
			refP, offP := ref.Model.Parameters(), off.Model.Parameters()
			for i := range refP {
				if !refP[i].Value.Equal(offP[i].Value) {
					t.Fatalf("window=%d workers=%d: parameter %s diverged", window, workers, refP[i].Name)
				}
			}
			off.Close()
		}
	}
}

func TestOffloadWindowResidencyBound(t *testing.T) {
	// The working set must never exceed the window (+1 transient during
	// fetch-before-evict at the window boundary).
	for _, window := range []int{1, 2, 4} {
		tr, err := NewFunctionalTrainer(smallGPT(t, 8), optim.DefaultAdamConfig(), window, 2)
		if err != nil {
			t.Fatal(err)
		}
		l := loader(t)
		for i := 0; i < 3; i++ {
			tr.Step(l.Next())
		}
		tr.Drain()
		if tr.MaxResident() > window+1 {
			t.Fatalf("window %d: peak residency %d exceeds window+1", window, tr.MaxResident())
		}
		tr.Close()
	}
}

func TestOffloadTransferCounts(t *testing.T) {
	// With n=8 blocks and window 2, each iteration fetches (n−w) blocks
	// in FP and (n−w) in BP, and evicts the same — after the first
	// iteration's warm start.
	tr, err := NewFunctionalTrainer(smallGPT(t, 8), optim.DefaultAdamConfig(), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	l := loader(t)
	tr.Step(l.Next())
	f1, e1 := tr.Fetches(), tr.Evictions()
	tr.Step(l.Next())
	tr.Drain()
	fPer, ePer := tr.Fetches()-f1, tr.Evictions()-e1
	if fPer != 2*(8-2) || ePer != 2*(8-2) {
		t.Fatalf("per-iteration fetches=%d evictions=%d, want 12 each", fPer, ePer)
	}
	tr.Close()
}

func TestOffloadSingleWorkerStillCorrect(t *testing.T) {
	// Even one optimizer worker (the ZeRO-Offload configuration) must
	// preserve semantics; it is only slower.
	ref := newResidentTrainer(smallGPT(t, 4), optim.DefaultAdamConfig())
	off, err := NewFunctionalTrainer(smallGPT(t, 4), optim.DefaultAdamConfig(), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	rl, ol := loader(t), loader(t)
	for i := 0; i < 3; i++ {
		want := ref.Step(rl.Next())
		got := off.Step(ol.Next())
		if got != want {
			t.Fatalf("iter %d: %v != %v", i, got, want)
		}
	}
	off.Drain()
	off.Close()
}

func TestOffloadLossDecreases(t *testing.T) {
	tr, err := NewFunctionalTrainer(smallGPT(t, 4), optim.AdamConfig{LR: 5e-3, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Fixed batch so the loss trend is meaningful.
	l := loader(t)
	b := l.Next()
	first := tr.Step(b)
	var last float64
	for i := 0; i < 20; i++ {
		last = tr.Step(b)
	}
	tr.Drain()
	tr.Close()
	if last >= first {
		t.Fatalf("offloaded training did not learn: first %v last %v", first, last)
	}
}

func TestFunctionalTrainerValidation(t *testing.T) {
	g := smallGPT(t, 4)
	if _, err := NewFunctionalTrainer(g, optim.DefaultAdamConfig(), 0, 1); err == nil {
		t.Fatal("window 0 must be rejected")
	}
	if _, err := NewFunctionalTrainer(g, optim.DefaultAdamConfig(), 5, 1); err == nil {
		t.Fatal("window > layers must be rejected")
	}
	if _, err := NewFunctionalTrainer(g, optim.DefaultAdamConfig(), 2, 0); err == nil {
		t.Fatal("zero workers must be rejected")
	}
}

func TestOffloadCheckpointingCompatible(t *testing.T) {
	// §III-C: "STRONGHOLD supports activation checkpointing as long as
	// the working window size is larger than the number of layers
	// between two consecutive checkpoints."
	refModel := smallGPT(t, 6)
	refModel.Blocks.SetActivationCheckpointing(2)
	ref := newResidentTrainer(refModel, optim.DefaultAdamConfig())

	offModel := smallGPT(t, 6)
	offModel.Blocks.SetActivationCheckpointing(2)
	off, err := NewFunctionalTrainer(offModel, optim.DefaultAdamConfig(), 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	rl, ol := loader(t), loader(t)
	for i := 0; i < 3; i++ {
		want := ref.Step(rl.Next())
		got := off.Step(ol.Next())
		if got != want {
			t.Fatalf("iter %d with checkpointing: %v != %v", i, got, want)
		}
	}
	off.Drain()
	off.Close()
}

// residentTrainer is the reference execution: everything "on the GPU",
// one synchronous optimizer — conventional training. It exists so tests
// can demand bit-identical results from the offloaded path.
type residentTrainer struct {
	Model *nn.GPT
	Opt   *optim.Adam
}

// newResidentTrainer builds the reference trainer.
func newResidentTrainer(model *nn.GPT, cfg optim.AdamConfig) *residentTrainer {
	return &residentTrainer{Model: model, Opt: optim.NewAdam(model.Parameters(), cfg)}
}

// Step runs one conventional training iteration.
func (t *residentTrainer) Step(b data.Batch) float64 {
	loss := t.Model.TrainStep(b.Inputs, b.Targets)
	t.Opt.Step()
	t.Model.ZeroGrad()
	return loss
}
