package hw

import (
	"testing"

	"stronghold/internal/sim"
)

func newTestMachine(t *testing.T) (*sim.Engine, *Machine) {
	t.Helper()
	eng := sim.NewEngine()
	m, err := NewMachine(eng, V100Platform(), 400*GB)
	if err != nil {
		t.Fatal(err)
	}
	return eng, m
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
	if !m.Pinned.Pinned() || m.Pinned.Capacity() != 400*GB {
		t.Fatal("pinned arena wrong")
	}
	if m.HostMem.Capacity() != 632*GB-400*GB {
		t.Fatalf("host arena = %d", m.HostMem.Capacity())
	}
}

func TestMachinePinnedBeyondHostRejected(t *testing.T) {
	eng := sim.NewEngine()
	if _, err := NewMachine(eng, V100Platform(), 700*GB); err == nil {
		t.Fatal("pinned region beyond usable host must be rejected")
	}
	if _, err := NewMachine(eng, V100Platform(), -1); err == nil {
		t.Fatal("negative pinned region must be rejected")
	}
}

func TestMachineZeroPinned(t *testing.T) {
	eng := sim.NewEngine()
	m, err := NewMachine(eng, V100Platform(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.HostMem.Capacity() != 632*GB {
		t.Fatal("all usable host memory should be pageable")
	}
}

func TestCopyDurationPinnedFaster(t *testing.T) {
	eng, m := newTestMachine(t)
	pinned := m.CopyH2D(1*GB, true, nil)
	eng.Run()
	tPinned := pinned.FiredAt()

	eng2 := sim.NewEngine()
	m2, _ := NewMachine(eng2, V100Platform(), 400*GB)
	unpinned := m2.CopyH2D(1*GB, false, nil)
	eng2.Run()
	if unpinned.FiredAt() <= tPinned {
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
	eng, m := newTestMachine(t)
	a := m.CopyH2D(1*GB, true, nil)
	b := m.CopyD2H(1*GB, true, nil)
	eng.Run()
	if a.FiredAt() != b.FiredAt() {
		t.Fatalf("opposite-direction copies should overlap: %d vs %d", a.FiredAt(), b.FiredAt())
	}
}

func TestSameDirectionCopiesSerialize(t *testing.T) {
	eng, m := newTestMachine(t)
	a := m.CopyH2D(1*GB, true, nil)
	b := m.CopyH2D(1*GB, true, nil)
	eng.Run()
	if b.FiredAt() <= a.FiredAt() {
		t.Fatal("same-direction copies must serialize on the DMA engine")
	}
}

func TestNVMeSlowerThanPCIe(t *testing.T) {
	eng, m := newTestMachine(t)
	pcie := m.CopyH2D(1*GB, true, nil)
	nvme := m.NVMeRead(1*GB, nil)
	eng.Run()
	if nvme.FiredAt() <= pcie.FiredAt() {
		t.Fatal("NVMe reads must be slower than PCIe copies (7 vs 12.8 GB/s)")
	}
	wr := m.NVMeWrite(1*GB, nil)
	eng.Run()
	if wr.FiredAt()-nvme.FiredAt() <= nvme.FiredAt()-0 {
		t.Fatal("NVMe writes must be slower than reads")
	}
}

func TestNetSend(t *testing.T) {
	eng, m := newTestMachine(t)
	s := m.NetSend(125*1000*1000, nil) // 1 Gbit at 12.5 GB/s = 10ms
	eng.Run()
	got := sim.Seconds(s.FiredAt())
	if got < 0.009 || got > 0.012 {
		t.Fatalf("1Gbit send took %vs, want ~0.01s", got)
	}
}

func TestStreamSerializesKernels(t *testing.T) {
	eng, m := newTestMachine(t)
	s := m.NewStream("w0")
	var spans [][2]sim.Time
	record := func(st, en sim.Time) { spans = append(spans, [2]sim.Time{st, en}) }
	s.Launch(15.7e12, 1.0, nil, record) // 1s at full rate
	s.Launch(15.7e12, 1.0, nil, record)
	eng.Run()
	if len(spans) != 2 {
		t.Fatalf("got %d kernels", len(spans))
	}
	if spans[1][0] < spans[0][1] {
		t.Fatal("kernels on one stream must not overlap")
	}
}

func TestTwoStreamsShareGPU(t *testing.T) {
	// Two streams with 0.5 utilization caps run concurrently and both
	// finish in ~1s — the Fig. 11 multi-stream speedup mechanism.
	eng, m := newTestMachine(t)
	s1 := m.NewStream("w0")
	s2 := m.NewStream("w1")
	a := s1.Launch(15.7e12/2, 0.5, nil, nil)
	b := s2.Launch(15.7e12/2, 0.5, nil, nil)
	eng.Run()
	ta, tb := sim.Seconds(a.FiredAt()), sim.Seconds(b.FiredAt())
	if ta > 1.1 || tb > 1.1 {
		t.Fatalf("streams did not overlap: %v, %v", ta, tb)
	}
}

func TestStreamLaunchDeps(t *testing.T) {
	eng, m := newTestMachine(t)
	s := m.NewStream("w0")
	dep := sim.NewSignal(eng)
	k := s.Launch(15.7e9, 1.0, []*sim.Signal{dep}, nil) // 1ms kernel
	eng.Schedule(sim.Milliseconds(5), dep.Fire)
	eng.Run()
	if got := sim.Seconds(k.FiredAt()); got < 0.0059 {
		t.Fatalf("kernel ignored dependency: finished at %v", got)
	}
	if !s.Barrier().Fired() {
		t.Fatal("barrier should be the last kernel's signal")
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
			s.Launch(1, u, nil, nil)
		}()
	}
}

func TestComputeAndCopyOverlap(t *testing.T) {
	// The core STRONGHOLD premise: a kernel and a PCIe copy proceed in
	// parallel, so total time is max, not sum.
	eng, m := newTestMachine(t)
	s := m.NewStream("w0")
	k := s.Launch(15.7e12, 1.0, nil, nil) // ~1s compute
	c := m.CopyH2D(12*GB, true, nil)      // ~1s copy
	eng.Run()
	end := max(k.FiredAt(), c.FiredAt())
	if got := sim.Seconds(end); got > 1.2 {
		t.Fatalf("compute and copy serialized: total %vs", got)
	}
}
