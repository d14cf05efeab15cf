// Package suppress is a fixture for the //vet:ignore mechanism: three
// identical violations, one annotated (trailing form), one annotated
// on the preceding line, and one left bare. Only the bare one may
// survive.
package suppress

import (
	"time"

	"stronghold/internal/sim"
)

// Stamp runs a simulation and reads the wall clock three times.
func Stamp(eng *sim.Engine) [3]time.Time {
	eng.Run()
	a := time.Now() //vet:ignore simtime log timestamp, never feeds the simulation
	//vet:ignore simtime log timestamp, annotated on the line above
	b := time.Now()
	c := time.Now() // want "wall-clock time.Now"
	return [3]time.Time{a, b, c}
}
