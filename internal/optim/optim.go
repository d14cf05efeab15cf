// Package optim implements the optimizer the paper trains with — Adam,
// or AdamW with decoupled weight decay (the memory-dominating case the
// offloading work targets) — with a per-parameter step so the
// STRONGHOLD concurrent CPU optimizer pool can update disjoint layers
// in parallel, plus the learning-rate schedules that drive it.
package optim

import (
	"math"

	"stronghold/internal/autograd"
)

// AdamConfig holds Adam/AdamW hyperparameters. Defaults (Zero values
// replaced by DefaultAdamConfig) follow the paper's references [22],
// [11].
type AdamConfig struct {
	LR          float32
	Beta1       float32
	Beta2       float32
	Eps         float32
	WeightDecay float32 // decoupled (AdamW) when nonzero
}

// DefaultAdamConfig returns the standard Adam hyperparameters.
func DefaultAdamConfig() AdamConfig {
	return AdamConfig{LR: 1e-3, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Adam implements Adam/AdamW. Its two moment buffers are the "optimizer
// states" of the paper: 8 bytes per parameter in FP32, which together
// with parameter+gradient makes the 16 bytes/param model-state total
// used in all memory-capacity experiments.
type Adam struct {
	Config AdamConfig
	params []*autograd.Parameter
	m, v   [][]float32
	step   []int // per-parameter step count, so StepParam stays independent
}

// NewAdam builds an Adam optimizer over params.
func NewAdam(params []*autograd.Parameter, cfg AdamConfig) *Adam {
	a := &Adam{Config: cfg, params: params}
	a.m = make([][]float32, len(params))
	a.v = make([][]float32, len(params))
	a.step = make([]int, len(params))
	for i, p := range params {
		a.m[i] = make([]float32, p.Value.Size())
		a.v[i] = make([]float32, p.Value.Size())
	}
	return a
}

// Params returns the managed parameters.
func (a *Adam) Params() []*autograd.Parameter { return a.params }

// Step applies one update to every managed parameter.
func (a *Adam) Step() {
	for i := range a.params {
		a.StepParam(i)
	}
}

// StepParam applies one update to the i-th managed parameter only. The
// STRONGHOLD optimizer pool uses it to update layers concurrently from
// different workers. It is safe to call concurrently for
// *different* i from different goroutines: all touched state is indexed
// by i.
func (a *Adam) StepParam(i int) {
	a.stepParam(i, a.Config)
}

// StepParamLR updates one parameter with an explicit learning rate —
// how LR schedules drive asynchronous per-layer updates without racing
// on the shared config.
func (a *Adam) StepParamLR(i int, lr float32) {
	c := a.Config
	c.LR = lr
	a.stepParam(i, c)
}

func (a *Adam) stepParam(i int, c AdamConfig) {
	p := a.params[i]
	a.step[i]++
	t := a.step[i]
	bc1 := 1 - float32(math.Pow(float64(c.Beta1), float64(t)))
	bc2 := 1 - float32(math.Pow(float64(c.Beta2), float64(t)))
	w, g, m, v := p.Value.Data(), p.Grad.Data(), a.m[i], a.v[i]
	for j := range w {
		gj := g[j]
		m[j] = c.Beta1*m[j] + (1-c.Beta1)*gj
		v[j] = c.Beta2*v[j] + (1-c.Beta2)*gj*gj
		mhat := m[j] / bc1
		vhat := v[j] / bc2
		upd := c.LR * mhat / (float32(math.Sqrt(float64(vhat))) + c.Eps)
		if c.WeightDecay != 0 {
			upd += c.LR * c.WeightDecay * w[j]
		}
		w[j] -= upd
	}
}
