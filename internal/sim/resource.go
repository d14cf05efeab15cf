package sim

import (
	"fmt"
	"strconv"
)

// Resource is a FIFO-serialized device: one task runs at a time, in
// submission order. Copy engines, NVMe queues and per-core CPU queues
// are Resources.
type Resource struct {
	eng       *Engine
	name      string
	busyUntil Time
	busyTotal Time // accumulated busy time, for utilization reporting

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

	// pending holds the completions of submitted tasks in submission
	// order. Ends never decrease along it — a task starts no earlier
	// than its predecessor's end — so the engine fires their events in
	// ring order and complete, cached in fire, pops the head.
	pending Ring[completion]
	fire    func()
}

// completion is one submitted task's pending completion callback.
type completion struct {
	c          Completer
	tag        int32
	start, end Time
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
	r := &Resource{eng: eng, name: name}
	r.fire = r.complete
	return r
}

// Name returns the resource's label.
func (r *Resource) Name() string { return r.name }

// Submit enqueues a task of the given duration. The task starts when
// the resource frees up (or immediately if idle); at its completion c —
// which may be nil — receives Complete(tag, start, end). Submit returns
// the completion time.
//
//vet:hotpath
func (r *Resource) Submit(duration Time, c Completer, tag int32) Time {
	if duration < 0 {
		panic(fmt.Sprintf("sim: resource %s got negative duration %d", r.name, duration))
	}
	duration = r.jittered(duration)
	start := max(r.eng.Now(), r.busyUntil)
	end := start + duration
	if r.stretch != nil {
		if s := r.stretch(start, duration); s > end {
			end = s
		}
	}
	r.busyUntil = end
	r.busyTotal += end - start
	if c != nil {
		r.pending.Push(completion{c: c, tag: tag, start: start, end: end})
		r.eng.At(end, r.fire)
	}
	return end
}

// complete delivers the oldest pending completion.
//
//vet:hotpath
func (r *Resource) complete() {
	p := r.pending.Pop()
	p.c.Complete(p.tag, p.start, p.end)
}

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
// its concurrent optimizer workers (§III-E). Workers are built on first
// use: least-loaded dispatch takes the lowest-index worker never used,
// idle since time zero, before any used one, so workers are built in
// index order, and a run that dispatches to one worker builds one, not
// every core of the machine.
type Pool struct {
	eng  *Engine
	name string
	size int
	// workers are the workers built so far: a prefix of the pool.
	workers []*Resource
	stretch func(start, dur Time) Time
}

// NewPool builds a pool of n workers.
func NewPool(eng *Engine, name string, n int) *Pool {
	if n <= 0 {
		panic(fmt.Sprintf("sim: pool %s needs at least one worker, got %d", name, n))
	}
	return &Pool{eng: eng, name: name, size: n}
}

// Size returns the number of workers.
func (p *Pool) Size() int { return p.size }

// Worker returns worker i ("name[i]"), building it, and every
// lower-index worker not built yet, on first use.
func (p *Pool) Worker(i int) *Resource {
	for len(p.workers) <= i {
		if p.workers == nil {
			p.workers = make([]*Resource, 0, p.size)
		}
		w := NewResource(p.eng, p.name+"["+strconv.Itoa(len(p.workers))+"]")
		w.stretch = p.stretch
		p.workers = append(p.workers, w)
	}
	return p.workers[i]
}

// SetStretch installs a completion-time transform on every worker, as
// Resource.SetStretch does, including those not built yet.
func (p *Pool) SetStretch(fn func(start, dur Time) Time) {
	p.stretch = fn
	for _, w := range p.workers {
		w.SetStretch(fn)
	}
}

// Pick returns the index of the worker to dispatch to now: the least
// loaded, the lowest index among equals. A worker not built
// yet has been idle since time zero.
func (p *Pool) Pick() int {
	best := 0
	for i, w := range p.workers {
		if w.busyUntil < p.workers[best].busyUntil {
			best = i
		}
	}
	if n := len(p.workers); n < p.size && (n == 0 || p.workers[best].busyUntil > 0) {
		return n
	}
	return best
}

// Utilization returns the mean worker utilization; a worker not built
// yet was never busy.
func (p *Pool) Utilization() float64 {
	var u float64
	for _, w := range p.workers {
		u += w.Utilization()
	}
	return u / float64(p.size)
}
