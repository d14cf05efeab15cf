package hw

import (
	"testing"

	"stronghold/internal/sim"
)

func newTestMachine(t *testing.T) (*sim.Engine, *Machine) {
	t.Helper()
	eng := sim.NewEngine()
	return eng, NewMachine(eng, V100Platform())
}

func TestPlatformSpecsMatchPaper(t *testing.T) {
	v := V100Platform()
	if v.GPU.MemBytes != 32*GB {
		t.Fatal("V100 must have 32GB")
	}
	if v.CPU.MemBytes != 755*GB {
		t.Fatal("V100 host must have 755GB")
	}
	if v.CPU.Cores != 48 {
		t.Fatal("V100 server has 2x24 cores")
	}
	if v.Nodes != 1 {
		t.Fatal("V100 platform is single node")
	}
	a := A10ClusterPlatform()
	if a.GPU.MemBytes != 24*GB || a.Nodes != 8 {
		t.Fatal("A10 cluster must be 8 nodes of 24GB")
	}
	if a.CPU.Cores != 128 {
		t.Fatal("A10 node has 2x64 cores")
	}
	if a.Net.BandwidthPerLink != 100e9 {
		t.Fatal("A10 fabric is 800 Gbps = 100 GB/s")
	}
}

func TestMachineArenas(t *testing.T) {
	_, m := newTestMachine(t)
	if m.GPUMem.Capacity() != 32*GB {
		t.Fatal("GPU arena capacity")
	}
}

// copyTime is one transfer's occupancy of a DMA engine, as the engine
// issues it: the async-call overhead plus the PCIe transfer.
func copyTime(m *Machine, bytes int64, pinned bool) sim.Time {
	return m.Spec.AsyncCallNS + m.Spec.PCIe.CopyTime(bytes, pinned)
}

func TestCopyDurationPinnedFaster(t *testing.T) {
	_, m := newTestMachine(t)
	tPinned := m.H2D.Submit(copyTime(m, 1*GB, true), nil, 0)

	_, m2 := newTestMachine(t)
	if m2.H2D.Submit(copyTime(m2, 1*GB, false), nil, 0) <= tPinned {
		t.Fatal("unpinned transfers must be slower")
	}
	// 1 GB at 12.8 GB/s ≈ 83.9 ms.
	got := sim.Seconds(tPinned)
	if got < 0.080 || got > 0.090 {
		t.Fatalf("pinned 1GB H2D took %vs, want ~0.084s", got)
	}
}

func TestCopyEnginesIndependent(t *testing.T) {
	// H2D and D2H are separate DMA engines, so opposite-direction
	// copies fully overlap.
	_, m := newTestMachine(t)
	a := m.H2D.Submit(copyTime(m, 1*GB, true), nil, 0)
	b := m.D2H.Submit(copyTime(m, 1*GB, true), nil, 0)
	if a != b {
		t.Fatalf("opposite-direction copies should overlap: %d vs %d", a, b)
	}
}

func TestSameDirectionCopiesSerialize(t *testing.T) {
	_, m := newTestMachine(t)
	a := m.H2D.Submit(copyTime(m, 1*GB, true), nil, 0)
	b := m.H2D.Submit(copyTime(m, 1*GB, true), nil, 0)
	if b <= a {
		t.Fatal("same-direction copies must serialize on the DMA engine")
	}
}

func TestNVMeSlowerThanPCIe(t *testing.T) {
	_, m := newTestMachine(t)
	pcie := m.H2D.Submit(copyTime(m, 1*GB, true), nil, 0)
	nvme := m.NVMeQ.Submit(m.Spec.NVMe.ReadTime(1*GB), nil, 0)
	if nvme <= pcie {
		t.Fatal("NVMe reads must be slower than PCIe copies (7 vs 12.8 GB/s)")
	}
	wr := m.NVMeQ.Submit(m.Spec.NVMe.WriteTime(1*GB), nil, 0)
	if wr-nvme <= nvme {
		t.Fatal("NVMe writes must be slower than reads")
	}
}

// doneFunc adapts a plain callback to sim.Completer for tests.
type doneFunc func(start, end sim.Time)

func (f doneFunc) Complete(_ int32, start, end sim.Time) { f(start, end) }

// spanOf returns a completer recording a kernel's span.
func spanOf(span *[2]sim.Time) sim.Completer {
	return doneFunc(func(start, end sim.Time) { *span = [2]sim.Time{start, end} })
}

func TestStreamSerializesKernels(t *testing.T) {
	// Launching a kernel from its predecessor's completion — how the
	// plan executor orders one stream — runs the two back to back, the
	// second after one launch latency.
	eng, m := newTestMachine(t)
	s := m.NewStream("w0")
	var first, second [2]sim.Time
	s.Launch(15.7e12, 1.0, doneFunc(func(start, end sim.Time) { // 1s at full rate
		first = [2]sim.Time{start, end}
		s.Launch(15.7e12, 1.0, spanOf(&second), 0)
	}), 0)
	eng.Run()
	if first[1] == 0 || second[1] == 0 {
		t.Fatalf("kernels did not complete: %v %v", first, second)
	}
	if second[0] != first[1]+m.Spec.KernelLaunchNS {
		t.Fatalf("second kernel started at %d, want %d (first end + launch latency)",
			second[0], first[1]+m.Spec.KernelLaunchNS)
	}
}

func TestStreamLaunchDeps(t *testing.T) {
	// A kernel launched when its dependency completes, as the plan
	// executor launches it, starts one launch latency after the
	// dependency.
	eng, m := newTestMachine(t)
	s := m.NewStream("w0")
	var k [2]sim.Time
	eng.Schedule(sim.Milliseconds(5), func() { s.Launch(15.7e9, 1.0, spanOf(&k), 0) }) // 1ms kernel
	eng.Run()
	if k[0] != sim.Milliseconds(5)+m.Spec.KernelLaunchNS {
		t.Fatalf("kernel started at %d, want %d (dependency + launch latency)",
			k[0], sim.Milliseconds(5)+m.Spec.KernelLaunchNS)
	}
	if got := sim.Seconds(k[1]); got < 0.0059 {
		t.Fatalf("kernel ignored dependency: finished at %v", got)
	}
}

func TestTwoStreamsShareGPU(t *testing.T) {
	// Two streams with 0.5 utilization caps run concurrently and both
	// finish in ~1s — the Fig. 11 multi-stream speedup mechanism.
	eng, m := newTestMachine(t)
	var a, b [2]sim.Time
	m.NewStream("w0").Launch(15.7e12/2, 0.5, spanOf(&a), 0)
	m.NewStream("w1").Launch(15.7e12/2, 0.5, spanOf(&b), 0)
	eng.Run()
	ta, tb := sim.Seconds(a[1]), sim.Seconds(b[1])
	if ta == 0 || tb == 0 || ta > 1.1 || tb > 1.1 {
		t.Fatalf("streams did not overlap: %v, %v", ta, tb)
	}
}

func TestStreamBadUtilizationPanics(t *testing.T) {
	_, m := newTestMachine(t)
	s := m.NewStream("w0")
	for _, u := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			s.Launch(1, u, nil, 0)
		}()
	}
}

func TestComputeAndCopyOverlap(t *testing.T) {
	// The core STRONGHOLD premise: a kernel and a PCIe copy proceed in
	// parallel, so total time is max, not sum.
	eng, m := newTestMachine(t)
	var k [2]sim.Time
	m.NewStream("w0").Launch(15.7e12, 1.0, spanOf(&k), 0) // ~1s compute
	c := m.H2D.Submit(copyTime(m, 12*GB, true), nil, 0)   // ~1s copy
	eng.Run()
	end := max(k[1], c)
	if k[1] == 0 || sim.Seconds(end) > 1.2 {
		t.Fatalf("compute and copy serialized: total %vs", sim.Seconds(end))
	}
}
