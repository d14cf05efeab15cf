package sim

import "fmt"

// Resource is a FIFO-serialized device: one task runs at a time, in
// submission order. Copy engines, NVMe queues and per-core CPU queues
// are Resources.
type Resource struct {
	eng       *Engine
	name      string
	busyUntil Time
	busyTotal Time // accumulated busy time, for utilization reporting
	tasks     uint64

	// Deterministic jitter (optional): each task's duration is
	// multiplied by a factor in [1, 1+2·jitterFrac] drawn from a seeded
	// SplitMix64 stream — used by robustness experiments to model
	// transfer-time variability while keeping runs reproducible.
	jitterFrac  float64
	jitterState uint64

	// stretch (optional) maps a task's (start, nominal duration) to its
	// degraded completion time — the fault injector's hook. It must be a
	// pure function of its arguments so replays stay deterministic, and
	// must never return earlier than the nominal completion.
	stretch func(start, dur Time) Time
}

// SetStretch installs a completion-time transform applied after jitter:
// a task starting at start with nominal duration dur completes at
// max(start+dur, fn(start, dur)). nil disables — the default — and the
// undisturbed path is byte-for-byte identical to a resource that never
// had a stretch installed.
func (r *Resource) SetStretch(fn func(start, dur Time) Time) { r.stretch = fn }

// SetJitter enables multiplicative duration jitter up to 2·frac,
// seeded deterministically. frac 0 disables.
func (r *Resource) SetJitter(seed uint64, frac float64) {
	if frac < 0 {
		panic(fmt.Sprintf("sim: resource %s negative jitter", r.name))
	}
	r.jitterFrac = frac
	r.jitterState = seed ^ 0x9e3779b97f4a7c15
}

// jittered stretches a duration by the next jitter draw.
func (r *Resource) jittered(d Time) Time {
	if r.jitterFrac == 0 {
		return d
	}
	r.jitterState += 0x9e3779b97f4a7c15
	z := r.jitterState
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	u := float64((z^(z>>31))>>11) / (1 << 53) // uniform in [0,1)
	return Time(float64(d) * (1 + 2*r.jitterFrac*u))
}

// NewResource returns an idle resource.
func NewResource(eng *Engine, name string) *Resource {
	return &Resource{eng: eng, name: name}
}

// Name returns the resource's label.
func (r *Resource) Name() string { return r.name }

// Submit enqueues a task of the given duration. The task starts when
// the resource frees up (or immediately if idle) and done — which may be
// nil — is invoked at completion with the task's start and end times.
// Submit returns the completion time.
func (r *Resource) Submit(duration Time, done func(start, end Time)) Time {
	if duration < 0 {
		panic(fmt.Sprintf("sim: resource %s got negative duration %d", r.name, duration))
	}
	duration = r.jittered(duration)
	submit := r.eng.Now()
	start := max(submit, r.busyUntil)
	end := start + duration
	if r.stretch != nil {
		if s := r.stretch(start, duration); s > end {
			end = s
		}
	}
	r.busyUntil = end
	r.busyTotal += end - start
	r.tasks++
	if o := r.eng.obs; o != nil {
		o.ResourceTask(r.name, submit, start, end)
	}
	if done != nil {
		r.eng.At(end, func() { done(start, end) })
	}
	return end
}

// SubmitAfter enqueues a task that additionally waits for all deps to
// fire before claiming the resource. FIFO order among SubmitAfter calls
// is not guaranteed — ordering is by dependency resolution, which is how
// CUDA streams with cross-stream events behave. It returns a Signal
// fired at task completion.
func (r *Resource) SubmitAfter(deps []*Signal, duration Time, done func(start, end Time)) *Signal {
	sig := NewSignal(r.eng)
	WaitAll(r.eng, deps, func() {
		r.Submit(duration, func(start, end Time) {
			if done != nil {
				done(start, end)
			}
			sig.Fire()
		})
	})
	return sig
}

// BusyUntil returns the time at which all currently queued work
// completes.
func (r *Resource) BusyUntil() Time { return r.busyUntil }

// BusyTotal returns accumulated busy time.
func (r *Resource) BusyTotal() Time { return r.busyTotal }

// Tasks returns the number of tasks submitted.
func (r *Resource) Tasks() uint64 { return r.tasks }

// Utilization returns busy time divided by elapsed time (0 when no time
// has passed).
func (r *Resource) Utilization() float64 {
	if r.eng.Now() == 0 {
		return 0
	}
	return float64(r.busyTotal) / float64(r.eng.Now())
}

// Pool is a set of identical Resources (e.g. CPU cores) with
// least-loaded dispatch — the thread-pool structure STRONGHOLD uses for
// its concurrent optimizer workers (§III-E).
type Pool struct {
	workers []*Resource
}

// NewPool builds a pool of n workers.
func NewPool(eng *Engine, name string, n int) *Pool {
	if n <= 0 {
		panic(fmt.Sprintf("sim: pool %s needs at least one worker, got %d", name, n))
	}
	p := &Pool{workers: make([]*Resource, n)}
	for i := range p.workers {
		p.workers[i] = NewResource(eng, fmt.Sprintf("%s[%d]", name, i))
	}
	return p
}

// Size returns the number of workers.
func (p *Pool) Size() int { return len(p.workers) }

// Workers exposes the pool's resources, e.g. to install per-worker
// degradation hooks.
func (p *Pool) Workers() []*Resource { return p.workers }

// Submit dispatches a task to the least-loaded worker and returns that
// worker's completion time.
func (p *Pool) Submit(duration Time, done func(start, end Time)) Time {
	return p.pick().Submit(duration, done)
}

// SubmitAfter dispatches a task that first waits on deps; the worker is
// chosen when the dependencies resolve.
func (p *Pool) SubmitAfter(deps []*Signal, duration Time, done func(start, end Time)) *Signal {
	eng := p.workers[0].eng
	sig := NewSignal(eng)
	WaitAll(eng, deps, func() {
		p.pick().Submit(duration, func(start, end Time) {
			if done != nil {
				done(start, end)
			}
			sig.Fire()
		})
	})
	return sig
}

func (p *Pool) pick() *Resource {
	best := p.workers[0]
	for _, w := range p.workers[1:] {
		if w.busyUntil < best.busyUntil {
			best = w
		}
	}
	return best
}

// BusyUntil returns the latest completion time across workers.
func (p *Pool) BusyUntil() Time {
	var t Time
	for _, w := range p.workers {
		t = max(t, w.busyUntil)
	}
	return t
}

// Utilization returns the mean worker utilization.
func (p *Pool) Utilization() float64 {
	var u float64
	for _, w := range p.workers {
		u += w.Utilization()
	}
	return u / float64(len(p.workers))
}
