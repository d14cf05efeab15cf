// Package enginetrans_bad is a fixture for the transitive enginepure
// scope: this file never imports sim or hw, but it holds engine state
// through enginetrans_helper.Wrap — so it is engine-owning by type
// reachability, and its concurrency is flagged exactly as if it
// imported the engine directly.
package enginetrans_bad

import (
	"sync" // want "import of sync in an engine-owning file: the simulation is single-goroutine by contract"

	"stronghold/internal/analysis/testdata/src/enginetrans_helper"
)

var mu sync.Mutex

// Tick drives the wrapped engine behind a channel and a goroutine.
func Tick(w *enginetrans_helper.Wrap) int64 {
	done := make(chan struct{}) // want "channel in an engine-owning file: express dependencies as plan edges, not CSP"
	go func() {                 // want "go statement in an engine-owning file: the simulation is single-goroutine by contract"
		mu.Lock()
		mu.Unlock()
		close(done)
	}()
	<-done // want "channel receive in an engine-owning file"
	return int64(w.Now())
}
