package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs by nearest rank (0 for none).
// It sorts xs in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

// quartiles returns the first quartile, median and third quartile of
// xs as Python's statistics.quantiles(xs, n=4) gives them (the
// "exclusive" method), the rule the benchmark's spread is judged by.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := len(s) + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// logLogSlope fits log(y) = a + b·log(x) by least squares and returns
// b: 1 means y grows linearly with x, 2 quadratically.
func logLogSlope(xs, ys []float64) float64 {
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		lx, ly := math.Log(xs[i]), math.Log(ys[i])
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// mib is the benchmark's MB: 2^20 bytes.
const mib = 1 << 20

// statusMB returns a memory field of /proc/self/status, such as VmRSS
// (resident set) or VmHWM (its peak), in MB. It fails where the file
// has no such line.
func statusMB(field string) (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			fields := strings.Fields(rest)
			if len(fields) == 2 && fields[1] == "kB" {
				if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
					return kb * 1024 / mib, nil
				}
			}
			return 0, fmt.Errorf("unreadable %s line %q", field, line)
		}
	}
	return 0, fmt.Errorf("/proc/self/status has no %s line", field)
}

// rssEvery is how often an rssSampler reads the resident set.
const rssEvery = 50 * time.Millisecond

// rssSampler reads the resident set every rssEvery while a phase runs.
// The median of its samples is the memory the workload holds. The peak
// is not used for that: on serve-cold it is set by the few moments two
// large simulations happen to overlap a GC cycle, so between runs of
// one seed it moves several times as much as the median.
type rssSampler struct {
	stop, done chan struct{}
	xs         []float64
	err        error
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			x, err := statusMB("VmRSS")
			if err != nil {
				s.err = err
				return
			}
			s.xs = append(s.xs, x)
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the median of its samples.
func (s *rssSampler) finish() (median float64, samples int, err error) {
	close(s.stop)
	<-s.done
	if s.err != nil {
		return 0, 0, s.err
	}
	return quantile(s.xs, 0.5), len(s.xs), nil
}

// reservoirLen is how many latencies a reservoir keeps: enough that the
// p90 of a sample sits within a fraction of a percent of the run's own.
const reservoirLen = 1 << 16

// reservoir keeps a uniform sample of at most reservoirLen latencies
// (Algorithm R), safe for concurrent clients. Once full it stops
// growing, so the resident set does not follow how many requests a run
// served.
type reservoir struct {
	mu  sync.Mutex
	n   int // latencies offered
	xs  []float64
	rng *rand.Rand
}

func newReservoir(seed uint64) *reservoir {
	return &reservoir{xs: make([]float64, 0, reservoirLen), rng: rand.New(rand.NewPCG(seed, 0))}
}

func (r *reservoir) add(x float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.n++
	if len(r.xs) < cap(r.xs) {
		r.xs = append(r.xs, x)
	} else if j := r.rng.IntN(r.n); j < len(r.xs) {
		r.xs[j] = x
	}
}

// chunked is an append-only list kept in fixed-size chunks. It grows a
// chunk at a time and never copies, so what the benchmark keeps adds
// memory in proportion to its count, not in the doubling steps that
// would make the resident set it reports jump with throughput.
type chunked[T any] struct{ chunks [][]T }

const chunkLen = 1 << 13

func (c *chunked[T]) add(x T) {
	n := len(c.chunks)
	if n == 0 || len(c.chunks[n-1]) == chunkLen {
		c.chunks = append(c.chunks, make([]T, 0, chunkLen))
		n++
	}
	c.chunks[n-1] = append(c.chunks[n-1], x)
}

// appendTo appends every element to dst.
func (c *chunked[T]) appendTo(dst []T) []T {
	for _, ch := range c.chunks {
		dst = append(dst, ch...)
	}
	return dst
}
