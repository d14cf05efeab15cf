// Package enginepure_clean is a fixture with two files: this one
// imports sim and stays strictly single-goroutine; worker.go uses
// goroutines and sync freely but never imports sim nor touches engine
// types — the functional-trainer pattern the rule must not flag.
package enginepure_clean

import "stronghold/internal/sim"

// Chain expresses a dependency with a completion callback, the
// sanctioned mechanism.
func Chain(eng *sim.Engine, r *sim.Resource) sim.Time {
	var end sim.Time
	r.Submit(10, func(_, _ sim.Time) {
		r.Submit(5, func(_, e sim.Time) { end = e })
	})
	eng.Run()
	return end
}
