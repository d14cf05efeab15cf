package optim

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"stronghold/internal/autograd"
	"stronghold/internal/tensor"
)

func makeParams(n, size int, seed uint64) []*autograd.Parameter {
	rng := tensor.NewRNG(seed)
	ps := make([]*autograd.Parameter, n)
	for i := range ps {
		ps[i] = autograd.NewParameter("p", tensor.Randn(rng, 1, size))
		ps[i].Grad.CopyFrom(tensor.Randn(rng, 1, size))
	}
	return ps
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize (w-3)² elementwise; Adam should approach 3.
	p := autograd.NewParameter("w", tensor.Zeros(4))
	a := NewAdam([]*autograd.Parameter{p}, AdamConfig{LR: 0.1, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8})
	for iter := 0; iter < 500; iter++ {
		for j := range p.Grad.Data() {
			p.Grad.Data()[j] = 2 * (p.Value.Data()[j] - 3)
		}
		a.Step()
	}
	for _, w := range p.Value.Data() {
		if math.Abs(float64(w)-3) > 0.05 {
			t.Fatalf("Adam did not converge: %v", p.Value.Data())
		}
	}
}

func TestAdamFirstStepSize(t *testing.T) {
	// With bias correction, the first Adam step has magnitude ≈ LR.
	p := autograd.NewParameter("w", tensor.Zeros(1))
	p.Grad.CopyFrom(tensor.Full(0.5, 1))
	a := NewAdam([]*autograd.Parameter{p}, AdamConfig{LR: 0.01, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8})
	a.Step()
	if got := float64(p.Value.Data()[0]); math.Abs(got+0.01) > 1e-4 {
		t.Fatalf("first Adam step = %v, want ≈ -0.01", got)
	}
}

func TestAdamWWeightDecayShrinksWeights(t *testing.T) {
	p := autograd.NewParameter("w", tensor.Full(10, 1))
	p.Grad.CopyFrom(tensor.Zeros(1)) // no gradient signal
	a := NewAdam([]*autograd.Parameter{p}, AdamConfig{LR: 0.1, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, WeightDecay: 0.1})
	for i := 0; i < 10; i++ {
		a.Step()
	}
	if got := p.Value.Data()[0]; got >= 10 {
		t.Fatalf("weight decay did not shrink weight: %v", got)
	}
}

func TestAdamStateBytesIs8PerParam(t *testing.T) {
	// The 8 bytes/param (two FP32 moments) is the constant the paper's
	// memory models rely on.
	ps := makeParams(3, 100, 1)
	a := NewAdam(ps, DefaultAdamConfig())
	if a.StateBytes() != 3*100*8 {
		t.Fatalf("StateBytes = %d, want %d", a.StateBytes(), 3*100*8)
	}
}

func TestStepParamIndependence(t *testing.T) {
	// Updating parameters one at a time in any order must equal Step().
	mk := func() (*Adam, []*autograd.Parameter) {
		ps := makeParams(4, 16, 2)
		return NewAdam(ps, DefaultAdamConfig()), ps
	}
	aAll, psAll := mk()
	aAll.Step()

	aPer, psPer := mk()
	for _, i := range []int{2, 0, 3, 1} {
		aPer.StepParam(i)
	}
	for i := range psAll {
		if !psAll[i].Value.Equal(psPer[i].Value) {
			t.Fatalf("param %d differs between Step and permuted StepParam", i)
		}
	}
}

func TestStepParamConcurrentMatchesSequential(t *testing.T) {
	// The STRONGHOLD optimizer pool's core assumption: concurrent
	// StepParam on disjoint indices is equivalent to sequential Step.
	aSeq, psSeq := NewAdam(makeParams(8, 64, 3), DefaultAdamConfig()), []*autograd.Parameter(nil)
	psSeq = aSeq.Params()
	aSeq.Step()

	aCon := NewAdam(makeParams(8, 64, 3), DefaultAdamConfig())
	var wg sync.WaitGroup
	for i := range aCon.Params() {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			aCon.StepParam(i)
		}(i)
	}
	wg.Wait()
	for i := range psSeq {
		if !psSeq[i].Value.Equal(aCon.Params()[i].Value) {
			t.Fatalf("param %d differs between sequential and concurrent updates", i)
		}
	}
}

// Property: one Adam step never moves a weight by more than
// LR·(1+ε-margin) once bias-corrected — the bounded-update property.
func TestPropertyAdamBoundedStep(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		p := autograd.NewParameter("w", tensor.Randn(rng, 1, 16))
		before := p.Value.Clone()
		p.Grad.CopyFrom(tensor.Randn(rng, 10, 16))
		a := NewAdam([]*autograd.Parameter{p}, AdamConfig{LR: 0.01, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8})
		a.Step()
		for j := range before.Data() {
			if math.Abs(float64(p.Value.Data()[j]-before.Data()[j])) > 0.0101 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
