package hw

import (
	"fmt"

	"stronghold/internal/mem"
	"stronghold/internal/sim"
)

// Machine instantiates one GPU server of a Platform on a simulation
// engine: the GPU's shared SM array, two DMA copy engines, a CPU worker
// pool, an NVMe queue, the NIC, and byte-accounted memory arenas.
type Machine struct {
	Eng  *sim.Engine
	Spec Platform

	Compute *sim.SharedProcessor // the SM array (FLOP/s capacity)
	H2D     *sim.Resource        // host→device DMA engine
	D2H     *sim.Resource        // device→host DMA engine
	CPUPool *sim.Pool            // CPU cores for optimizer workers
	NVMeQ   *sim.Resource        // NVMe submission queue
	NIC     *sim.Resource        // network link

	GPUMem  *mem.Arena // device memory
	HostMem *mem.Arena // pageable host memory (usable portion)
	Pinned  *mem.Arena // page-locked host region (carved from host)
	Disk    *mem.Arena // NVMe capacity

	// Xfer, when non-nil, observes every byte-counted transfer issued
	// through the machine's copy helpers (DMA engines, NVMe queue, NIC)
	// — the byte-level complement of the engine-level sim.Observer, from
	// which bandwidth timelines are derived. Same contract: a pure sink,
	// and nil (the default) leaves every schedule byte-identical.
	Xfer TransferObserver
}

// TransferObserver receives completed byte-counted transfers. channel
// is the carrying resource's name (pcie.h2d, pcie.d2h, nvme, nic) and
// start/end the transfer's occupancy span on it.
type TransferObserver interface {
	Transfer(channel string, bytes int64, start, end sim.Time)
}

// xferDone returns the completion callback recording a transfer to the
// installed observer, or nil — the exact pre-observer call shape — when
// observation is off.
func (m *Machine) xferDone(channel string, bytes int64) func(start, end sim.Time) {
	if m.Xfer == nil {
		return nil
	}
	return func(start, end sim.Time) { m.Xfer.Transfer(channel, bytes, start, end) }
}

// NewMachine builds one server. pinnedBytes is carved out of usable host
// memory for the page-locked region STRONGHOLD transfers from.
func NewMachine(eng *sim.Engine, p Platform, pinnedBytes int64) (*Machine, error) {
	if pinnedBytes < 0 || pinnedBytes > p.CPU.UsableMemBytes {
		return nil, fmt.Errorf("hw: pinned region %d outside usable host memory %d",
			pinnedBytes, p.CPU.UsableMemBytes)
	}
	m := &Machine{
		Eng:     eng,
		Spec:    p,
		Compute: sim.NewSharedProcessor(eng, p.GPU.Name+".sm", p.GPU.PeakFlops),
		H2D:     sim.NewResource(eng, "pcie.h2d"),
		D2H:     sim.NewResource(eng, "pcie.d2h"),
		CPUPool: sim.NewPool(eng, "cpu", p.CPU.Cores),
		NVMeQ:   sim.NewResource(eng, "nvme"),
		NIC:     sim.NewResource(eng, "nic"),
		GPUMem:  mem.NewArena("gpu", p.GPU.MemBytes),
		Disk:    mem.NewArena("nvme", p.NVMe.Bytes),
	}
	if pinnedBytes > 0 {
		m.Pinned = mem.NewPinnedArena("pinned", pinnedBytes)
		m.HostMem = mem.NewArena("host", p.CPU.UsableMemBytes-pinnedBytes)
	} else {
		m.Pinned = mem.NewPinnedArena("pinned", 1) // empty sentinel region
		m.HostMem = mem.NewArena("host", p.CPU.UsableMemBytes)
	}
	return m, nil
}

// CopyH2D schedules an asynchronous host→device transfer after deps,
// returning its completion signal. The AsyncCallNS launch overhead
// (the paper's t_async) is charged on the engine occupancy.
func (m *Machine) CopyH2D(bytes int64, pinned bool, deps []*sim.Signal) *sim.Signal {
	return m.H2D.SubmitAfter(deps, m.Spec.AsyncCallNS+m.Spec.PCIe.CopyTime(bytes, pinned), m.xferDone("pcie.h2d", bytes))
}

// CopyD2H schedules an asynchronous device→host transfer after deps.
func (m *Machine) CopyD2H(bytes int64, pinned bool, deps []*sim.Signal) *sim.Signal {
	return m.D2H.SubmitAfter(deps, m.Spec.AsyncCallNS+m.Spec.PCIe.CopyTime(bytes, pinned), m.xferDone("pcie.d2h", bytes))
}

// NVMeRead schedules an asynchronous read of the given size from NVMe
// into host memory.
func (m *Machine) NVMeRead(bytes int64, deps []*sim.Signal) *sim.Signal {
	d := m.Spec.NVMe.LatencyNS + sim.Time(float64(bytes)/m.Spec.NVMe.ReadBW*1e9)
	return m.NVMeQ.SubmitAfter(deps, d, m.xferDone("nvme", bytes))
}

// NVMeWrite schedules an asynchronous write of the given size from host
// memory to NVMe.
func (m *Machine) NVMeWrite(bytes int64, deps []*sim.Signal) *sim.Signal {
	d := m.Spec.NVMe.LatencyNS + sim.Time(float64(bytes)/m.Spec.NVMe.WriteBW*1e9)
	return m.NVMeQ.SubmitAfter(deps, d, m.xferDone("nvme", bytes))
}

// NetSend schedules a transfer of the given size out of this node's
// NIC.
func (m *Machine) NetSend(bytes int64, deps []*sim.Signal) *sim.Signal {
	d := m.Spec.Net.LatencyNS + sim.Time(float64(bytes)/m.Spec.Net.BandwidthPerLink*1e9)
	return m.NIC.SubmitAfter(deps, d, m.xferDone("nic", bytes))
}

// Stream is a CUDA-like in-order execution queue on the machine's GPU:
// kernels launched on one stream serialize; kernels on different
// streams share the SM array through the capacity-shared processor.
type Stream struct {
	m    *Machine
	name string
	tail *sim.Signal
}

// NewStream creates an in-order kernel queue.
func (m *Machine) NewStream(name string) *Stream {
	return &Stream{m: m, name: name, tail: sim.FiredSignal(m.Eng)}
}

// Name returns the stream's label.
func (s *Stream) Name() string { return s.name }

// Launch enqueues a kernel of the given work (FLOPs) whose consumption
// is capped at utilization·peak — the fraction of the SM array a kernel
// from this worker's batch shape can occupy. The kernel starts after
// the previous kernel on this stream and all deps complete. onDone, if
// non-nil, observes the kernel's span.
func (s *Stream) Launch(flops, utilization float64, deps []*sim.Signal, onDone func(start, end sim.Time)) *sim.Signal {
	if utilization <= 0 || utilization > 1 {
		panic(fmt.Sprintf("hw: stream %s got utilization %v outside (0,1]", s.name, utilization))
	}
	allDeps := append([]*sim.Signal{s.tail}, deps...)
	launch := sim.Time(s.m.Spec.KernelLaunchNS)
	sig := sim.NewSignal(s.m.Eng)
	sim.WaitAll(s.m.Eng, allDeps, func() {
		s.m.Eng.Schedule(launch, func() {
			s.m.Compute.Submit(flops, utilization*s.m.Spec.GPU.PeakFlops, nil, onDone).Wait(sig.Fire)
		})
	})
	s.tail = sig
	return sig
}

// Barrier returns a signal that fires when everything previously
// launched on the stream has completed.
func (s *Stream) Barrier() *sim.Signal { return s.tail }
