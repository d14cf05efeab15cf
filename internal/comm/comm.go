// Package comm models collective communication — NCCL-style ring
// collectives for GPUs and Gloo-style CPU collectives — with α–β cost
// models, plus STRONGHOLD's heterogeneous concurrent collectives
// (§III-E2) that let CPU and GPU tensors participate at the same time.
// It also provides functional (real-tensor) all-reduce used by the
// multi-stream executor's gradient synchronization.
package comm

import (
	"fmt"

	"stronghold/internal/sim"
	"stronghold/internal/tensor"
)

// LinkSpec is an α–β link model: fixed per-message latency plus a
// bandwidth term.
type LinkSpec struct {
	BandwidthBytesPerSec float64
	LatencyNS            int64
}

func (l LinkSpec) transfer(bytes float64) sim.Time {
	return l.LatencyNS + sim.Time(bytes/l.BandwidthBytesPerSec*1e9)
}

// RingAllReduce returns the time for a ring all-reduce of the given
// payload across w ranks: 2·(w−1) steps each moving bytes/w.
func RingAllReduce(bytes int64, w int, link LinkSpec) sim.Time {
	if w <= 1 {
		return 0
	}
	steps := 2 * (w - 1)
	per := float64(bytes) / float64(w)
	return sim.Time(steps) * link.transfer(per)
}

// RingAllGather returns the time for a ring all-gather: (w−1) steps of
// bytes/w.
func RingAllGather(bytes int64, w int, link LinkSpec) sim.Time {
	if w <= 1 {
		return 0
	}
	return sim.Time(w-1) * link.transfer(float64(bytes)/float64(w))
}

// RingReduceScatter returns the time for a reduce-scatter: (w−1) steps
// of bytes/w.
func RingReduceScatter(bytes int64, w int, link LinkSpec) sim.Time {
	return RingAllGather(bytes, w, link)
}

// HeterogeneousAllReduce models STRONGHOLD's concurrent CPU+GPU
// collectives: a GPU-tensor all-reduce (NCCL) and a CPU-tensor
// all-reduce (Gloo) issued together. Native frameworks serialize the
// two ("only one type of tensors can participate at a time"); the
// heterogeneous extension overlaps them. It returns both durations so
// experiments can report the §III-E2 gain.
func HeterogeneousAllReduce(gpuBytes, cpuBytes int64, w int, gpuLink, cpuLink LinkSpec) (serialized, concurrent sim.Time) {
	g := RingAllReduce(gpuBytes, w, gpuLink)
	c := RingAllReduce(cpuBytes, w, cpuLink)
	return g + c, max(g, c)
}

// AllReduceTensors performs a functional in-place all-reduce (sum) over
// per-worker tensor lists: after the call every worker's i-th tensor
// holds the elementwise sum across workers. This is the gradient
// synchronization of the multi-stream executor (§IV-A) — data-parallel
// training inside one GPU.
func AllReduceTensors(workers [][]*tensor.Tensor) error {
	if len(workers) == 0 {
		return fmt.Errorf("comm: no workers")
	}
	n := len(workers[0])
	for w, ts := range workers {
		if len(ts) != n {
			return fmt.Errorf("comm: worker %d has %d tensors, want %d", w, len(ts), n)
		}
	}
	for i := 0; i < n; i++ {
		ref := workers[0][i]
		for w := 1; w < len(workers); w++ {
			if workers[w][i].Size() != ref.Size() {
				return fmt.Errorf("comm: tensor %d size mismatch on worker %d", i, w)
			}
			ref.AddScaled(1, workers[w][i])
		}
		for w := 1; w < len(workers); w++ {
			workers[w][i].CopyFrom(ref)
		}
	}
	return nil
}
