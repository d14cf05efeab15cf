// Package enginecapture_bad is a fixture for the capture escapes the
// direct checks used to miss: bound method values (`f := eng.Run;
// go f()`) and engine-capturing functions handed to goroutine-spawning
// wrappers, directly and through a relay.
package enginecapture_bad

import (
	"stronghold/internal/analysis/testdata/src/enginecapture_helper"
	"stronghold/internal/sim"
)

// Detach launders the receiver through a method value.
func Detach(eng *sim.Engine) {
	f := eng.Run
	go f() // want "goroutine runs \"f\", a method value bound to sim.Engine: engine-owning values must stay on the simulation goroutine"
}

// ViaSpawner hands an engine-capturing closure to a wrapper that
// spawns it.
func ViaSpawner(eng *sim.Engine) {
	enginecapture_helper.Spawn(func() {
		eng.Run() // want "closure passed to enginecapture_helper.Spawn runs on a goroutine and captures \"eng\" \\(sim.Engine\\)"
	})
}

// queue owns a resource: a method value bound to it carries the
// resource along.
type queue struct {
	res *sim.Resource
}

func (q *queue) Drain() { q.res.Submit(0, nil, 0) }

// ViaRelay reaches the spawner one hop away with a method value.
func ViaRelay(q *queue) {
	enginecapture_helper.Relay(q.Drain) // want "method value on sim.Resource passed to enginecapture_helper.Relay runs on a goroutine"
}

// ViaBoundIdent passes a bound method value by name, at the spawned
// parameter index only.
func ViaBoundIdent(q *queue) string {
	g := q.Drain
	return enginecapture_helper.Tagged("label", g) // want "\"g\", a method value bound to sim.Resource, passed to enginecapture_helper.Tagged runs on a goroutine"
}

// ViaTimer launders a timer through a method value: a timer is armed
// on its engine's event order like any other engine state.
func ViaTimer(t *sim.Timer) {
	stop := t.Stop
	go stop() // want "goroutine runs \"stop\", a method value bound to sim.Timer: engine-owning values must stay on the simulation goroutine"
}
