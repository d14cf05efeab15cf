// Package enginepure_clean is a fixture with two files: this one
// imports sim and stays strictly single-goroutine; worker.go uses
// goroutines and sync freely but never imports sim nor touches engine
// types — the functional-trainer pattern the rule must not flag.
package enginepure_clean

import "stronghold/internal/sim"

// chain submits a follow-up task when the first completes and records
// the follow-up's end.
type chain struct {
	r   *sim.Resource
	end *sim.Time
}

func (c chain) Complete(tag int32, _, end sim.Time) {
	if tag == 0 {
		c.r.Submit(5, c, 1)
		return
	}
	*c.end = end
}

// Chain expresses a dependency with a completion callback, the
// sanctioned mechanism.
func Chain(eng *sim.Engine, r *sim.Resource) sim.Time {
	var end sim.Time
	r.Submit(10, chain{r: r, end: &end}, 0)
	eng.Run()
	return end
}
