// Package enginepure_bad is a fixture: a file that imports the sim
// package and then violates the single-goroutine contract in every way
// the rule knows about.
package enginepure_bad

import (
	"sync" // want "import of sync in an engine-owning file"

	"stronghold/internal/sim"
)

var mu sync.Mutex

// Fire runs the engine on a second goroutine behind a channel.
func Fire(eng *sim.Engine) {
	done := make(chan struct{}) // want "channel in an engine-owning file"
	go func() {
		eng.Run()          // want "goroutine closure captures \"eng\""
		done <- struct{}{} // want "channel send in an engine-owning file"
	}()
	<-done // want "channel receive in an engine-owning file"
}

// Hand passes an engine-owning value into a goroutine by argument.
func Hand(r *sim.Resource) {
	go drive(r) // want "goroutine receives sim.Resource"
}

func drive(r *sim.Resource) { r.Submit(1, nil, 0) }

// Spin starts a goroutine with no engine contact — still illegal in an
// engine-owning file.
func Spin() {
	go func() {}() // want "go statement in an engine-owning file"
}
