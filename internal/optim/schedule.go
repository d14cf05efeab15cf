package optim

import (
	"fmt"
	"math"
)

// Schedule maps a 0-based training step to a learning rate. The
// paper's evaluation uses Megatron-LM's hyperparameters (§V-B), whose
// standard schedule is linear warmup followed by cosine decay.
type Schedule interface {
	LR(step int) float64
}

// Constant returns the same rate at every step.
type Constant struct{ Rate float64 }

// LR implements Schedule.
func (c Constant) LR(int) float64 { return c.Rate }

// WarmupCosine ramps linearly from 0 to Base over WarmupSteps, then
// decays along a half cosine to MinRate at TotalSteps (clamping there
// afterwards).
type WarmupCosine struct {
	Base        float64
	MinRate     float64
	WarmupSteps int
	TotalSteps  int
}

// Validate reports configuration errors: a non-positive base rate, a
// minimum outside [0, base], or a decay that ends before it starts.
func (w WarmupCosine) Validate() error {
	switch {
	case w.Base <= 0:
		return fmt.Errorf("optim: non-positive base rate %v", w.Base)
	case w.MinRate < 0 || w.MinRate > w.Base:
		return fmt.Errorf("optim: min rate %v outside [0, base]", w.MinRate)
	case w.WarmupSteps < 0 || w.TotalSteps <= w.WarmupSteps:
		return fmt.Errorf("optim: bad step counts warmup=%d total=%d", w.WarmupSteps, w.TotalSteps)
	}
	return nil
}

// LR implements Schedule.
func (w WarmupCosine) LR(step int) float64 {
	if step < 0 {
		step = 0
	}
	if w.WarmupSteps > 0 && step < w.WarmupSteps {
		return w.Base * float64(step+1) / float64(w.WarmupSteps)
	}
	if step >= w.TotalSteps {
		return w.MinRate
	}
	progress := float64(step-w.WarmupSteps) / float64(w.TotalSteps-w.WarmupSteps)
	return w.MinRate + (w.Base-w.MinRate)*0.5*(1+math.Cos(math.Pi*progress))
}

// WarmupLinear ramps up over WarmupSteps then decays linearly to
// MinRate at TotalSteps.
type WarmupLinear struct {
	Base        float64
	MinRate     float64
	WarmupSteps int
	TotalSteps  int
}

// Validate reports the configuration errors WarmupCosine.Validate
// does: the two schedules share their fields.
func (w WarmupLinear) Validate() error { return WarmupCosine(w).Validate() }

// LR implements Schedule.
func (w WarmupLinear) LR(step int) float64 {
	if step < 0 {
		step = 0
	}
	if w.WarmupSteps > 0 && step < w.WarmupSteps {
		return w.Base * float64(step+1) / float64(w.WarmupSteps)
	}
	if step >= w.TotalSteps {
		return w.MinRate
	}
	progress := float64(step-w.WarmupSteps) / float64(w.TotalSteps-w.WarmupSteps)
	return w.Base + (w.MinRate-w.Base)*progress
}
