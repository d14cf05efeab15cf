// Package metrics is the simulator's virtual-time observability layer:
// deterministic counters, gauges and log-scale histograms stamped with
// the discrete-event clock, plus time-series "timelines" (per-resource
// busy fraction, queue depth, transfer bandwidth, working-window
// occupancy m(t), optimizer-pool backlog). The simulation derives them
// after a run from the plan executor's per-op record and writes them
// into a Collector; the package has no dependency on the simulation it
// measures.
//
// Everything here is single-goroutine by the same contract as the
// engine itself, and every export (Prometheus text exposition, JSON,
// CSV) is canonical: the same run produces byte-identical bytes, which
// is what lets the determinism test battery cover metrics the way it
// covers Chrome traces.
package metrics

import (
	"math"
	"math/bits"
)

// histBuckets is the number of log-scale histogram buckets: bucket i
// (i < histBuckets-1) covers observations v with v <= 2^i, and the last
// bucket is the +Inf overflow. Powers of two keep bucket bounds exact
// in both float64 export and round-trip parsing.
const histBuckets = 64

// Histogram is a fixed log-scale (base-2) histogram over non-negative
// int64 observations — virtual-time durations in nanoseconds, byte
// counts, queue depths. Counts and the sum are integers, so Merge is
// exactly associative (modular arithmetic included), a property the
// testing/quick battery pins down.
type Histogram struct {
	counts [histBuckets]uint64
	count  uint64
	sum    int64
}

// bucketOf returns the index of the smallest bucket bound >= v.
func bucketOf(v int64) int {
	if v <= 1 {
		return 0
	}
	b := bits.Len64(uint64(v - 1))
	if b > histBuckets-1 {
		return histBuckets - 1
	}
	return b
}

// BucketBound returns the upper bound of bucket i (math.MaxInt64 for
// the overflow bucket).
func BucketBound(i int) int64 {
	if i >= histBuckets-1 {
		return math.MaxInt64
	}
	return int64(1) << uint(i)
}

// Observe records one value. Negative values clamp into the first
// bucket (they cannot occur on the virtual clock; clamping keeps the
// type total for property tests).
func (h *Histogram) Observe(v int64) {
	h.counts[bucketOf(v)]++
	h.count++
	h.sum += v
}

// Merge folds o into h. Integer arithmetic throughout makes the
// operation associative and commutative: (a⊕b)⊕c == a⊕(b⊕c) exactly.
func (h *Histogram) Merge(o *Histogram) {
	for i := range h.counts {
		h.counts[i] += o.counts[i]
	}
	h.count += o.count
	h.sum += o.sum
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the (wrapping) sum of observations.
func (h *Histogram) Sum() int64 { return h.sum }

// Quantile returns the upper bucket bound covering the q-quantile
// (q in [0,1]; clamped outside). Zero observations return 0. Because
// the target rank is monotone in q and buckets are walked in ascending
// order, Quantile is monotone non-decreasing in q.
func (h *Histogram) Quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 || math.IsNaN(q) {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(h.count)))
	if target < 1 {
		target = 1
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i]
		if cum >= target {
			return BucketBound(i)
		}
	}
	return BucketBound(histBuckets - 1)
}

// Point is one timeline sample: a value observed at a virtual
// timestamp (nanoseconds).
type Point struct {
	T int64
	V float64
}

// Timeline is an append-only series of timestamped samples, recorded in
// event order — which the deterministic engine makes reproducible.
type Timeline struct {
	pts []Point
}

// Append records a sample.
func (tl *Timeline) Append(t int64, v float64) {
	tl.pts = append(tl.pts, Point{T: t, V: v})
}

// Points returns the recorded samples in insertion order.
func (tl *Timeline) Points() []Point { return tl.pts }

// Len returns the number of samples.
func (tl *Timeline) Len() int { return len(tl.pts) }
