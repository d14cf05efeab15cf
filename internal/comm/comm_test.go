package comm

import (
	"testing"
	"testing/quick"

	"stronghold/internal/tensor"
)

var link = LinkSpec{BandwidthBytesPerSec: 10e9, LatencyNS: 1000}

func TestLinkValidate(t *testing.T) {
	if err := link.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (LinkSpec{BandwidthBytesPerSec: 0}).Validate(); err == nil {
		t.Fatal("zero bandwidth must be rejected")
	}
	if err := (LinkSpec{BandwidthBytesPerSec: 1, LatencyNS: -1}).Validate(); err == nil {
		t.Fatal("negative latency must be rejected")
	}
}

func TestRingAllReduceFormula(t *testing.T) {
	// 8 ranks, 8 GB total: 14 steps of 1 GB at 10 GB/s = 1.4 s + 14 µs.
	got := RingAllReduce(8<<30, 8, link)
	chunk := float64(int64(1) << 30)
	perStep := 1000 + int64(chunk/10e9*1e9)
	want := 14 * perStep
	if got != want {
		t.Fatalf("allreduce = %d, want %d", got, want)
	}
}

func TestCollectivesSingleRankFree(t *testing.T) {
	if RingAllReduce(1<<30, 1, link) != 0 ||
		RingAllGather(1<<30, 1, link) != 0 {
		t.Fatal("single-rank collectives must be free")
	}
}

func TestAllGatherHalfOfAllReduce(t *testing.T) {
	// Ignoring latency, all-gather moves half of all-reduce's volume.
	big := LinkSpec{BandwidthBytesPerSec: 10e9, LatencyNS: 0}
	ar := RingAllReduce(1<<30, 8, big)
	ag := RingAllGather(1<<30, 8, big)
	if ar != 2*ag {
		t.Fatalf("allreduce %d vs allgather %d", ar, ag)
	}
	if RingReduceScatter(1<<30, 8, big) != ag {
		t.Fatal("reduce-scatter must equal all-gather cost")
	}
}

func TestHeterogeneousOverlap(t *testing.T) {
	gpuLink := LinkSpec{BandwidthBytesPerSec: 100e9, LatencyNS: 0}
	cpuLink := LinkSpec{BandwidthBytesPerSec: 10e9, LatencyNS: 0}
	ser, con := HeterogeneousAllReduce(8<<30, 4<<30, 8, gpuLink, cpuLink)
	if con >= ser {
		t.Fatal("concurrent heterogeneous collectives must beat serialized")
	}
	g := RingAllReduce(8<<30, 8, gpuLink)
	c := RingAllReduce(4<<30, 8, cpuLink)
	if ser != g+c || con != max(g, c) {
		t.Fatal("heterogeneous time decomposition wrong")
	}
}

func TestAllReduceTensorsSums(t *testing.T) {
	w0 := []*tensor.Tensor{tensor.FromSlice([]float32{1, 2}, 2)}
	w1 := []*tensor.Tensor{tensor.FromSlice([]float32{10, 20}, 2)}
	w2 := []*tensor.Tensor{tensor.FromSlice([]float32{100, 200}, 2)}
	if err := AllReduceTensors([][]*tensor.Tensor{w0, w1, w2}); err != nil {
		t.Fatal(err)
	}
	want := []float32{111, 222}
	for _, w := range [][]*tensor.Tensor{w0, w1, w2} {
		for i, v := range want {
			if w[0].Data()[i] != v {
				t.Fatalf("worker holds %v, want %v", w[0].Data(), want)
			}
		}
	}
}

func TestAllReduceTensorsErrors(t *testing.T) {
	if err := AllReduceTensors(nil); err == nil {
		t.Fatal("empty worker set must error")
	}
	w0 := []*tensor.Tensor{tensor.New(2), tensor.New(2)}
	w1 := []*tensor.Tensor{tensor.New(2)}
	if err := AllReduceTensors([][]*tensor.Tensor{w0, w1}); err == nil {
		t.Fatal("ragged worker lists must error")
	}
	w2 := []*tensor.Tensor{tensor.New(3), tensor.New(2)}
	if err := AllReduceTensors([][]*tensor.Tensor{w0, w2}); err == nil {
		t.Fatal("size mismatch must error")
	}
}

// Property: all-reduce of w identical tensors multiplies by w.
func TestPropertyAllReduceScaling(t *testing.T) {
	f := func(seed uint64, wRaw uint8) bool {
		w := int(wRaw%5) + 2
		rng := tensor.NewRNG(seed)
		base := tensor.Randn(rng, 1, 6)
		var workers [][]*tensor.Tensor
		for i := 0; i < w; i++ {
			workers = append(workers, []*tensor.Tensor{base.Clone()})
		}
		if err := AllReduceTensors(workers); err != nil {
			return false
		}
		want := base.Clone()
		want.ScaleInPlace(float32(w))
		return workers[w-1][0].AllClose(want, 1e-5, 1e-5)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: collective times are monotone in payload and rank count.
func TestPropertyCollectiveMonotone(t *testing.T) {
	f := func(kb uint16, wRaw uint8) bool {
		bytes := int64(kb)*1024 + 1024
		w := int(wRaw%14) + 2
		if RingAllReduce(2*bytes, w, link) < RingAllReduce(bytes, w, link) {
			return false
		}
		return RingAllReduce(bytes, w+1, link) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
