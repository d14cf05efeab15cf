package sim

// Signal is a one-shot completion event, the simulated analogue of a
// CUDA event: work records a signal when it finishes, and other work
// waits on it before starting. The plan executor keeps signals only
// where a dependency crosses an Execute call; inside one plan it orders
// ops by index.
type Signal struct {
	eng     *Engine
	fired   bool
	at      Time
	waiters []func()
}

// NewSignal returns an unfired signal bound to eng.
func NewSignal(eng *Engine) *Signal { return &Signal{eng: eng} }

// FiredSignal returns a signal that is already fired at the current
// time — useful as a neutral dependency.
func FiredSignal(eng *Engine) *Signal {
	s := NewSignal(eng)
	s.Fire()
	return s
}

// Fire marks the signal complete at the current virtual time and wakes
// all waiters. Firing twice panics: completion is a one-shot fact.
func (s *Signal) Fire() {
	s.Set()
	s.Wake()
}

// Set marks the signal complete at the current virtual time without
// waking its waiters yet. From then on Fired reports true and Wait runs
// its function at once, exactly as while Fire is waking waiters; Wake
// must follow. Splitting the two lets a caller run work of its own
// ahead of every waiter, as if it were the signal's first waiter.
// Setting twice panics.
func (s *Signal) Set() {
	if s.fired {
		panic("sim: signal fired twice")
	}
	s.fired = true
	s.at = s.eng.Now()
}

// Wake runs the waiters of a set signal in registration order and
// releases them.
func (s *Signal) Wake() {
	for _, w := range s.waiters {
		w()
	}
	s.waiters = nil
}

// Fired reports whether the signal has fired.
func (s *Signal) Fired() bool { return s.fired }

// FiredAt returns the time the signal fired; only valid after Fired().
func (s *Signal) FiredAt() Time { return s.at }

// Wait arranges for fn to run once the signal fires (immediately if it
// already has).
func (s *Signal) Wait(fn func()) {
	if s.fired {
		fn()
		return
	}
	s.waiters = append(s.waiters, fn)
}
