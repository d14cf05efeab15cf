package hw

import (
	"fmt"

	"stronghold/internal/mem"
	"stronghold/internal/sim"
)

// Machine instantiates one GPU server of a Platform on a simulation
// engine: the GPU's shared SM array, two DMA copy engines, a CPU worker
// pool, an NVMe queue, and the byte-accounted device memory arena.
type Machine struct {
	Eng  *sim.Engine
	Spec Platform

	Compute *sim.SharedProcessor // the SM array (FLOP/s capacity)
	H2D     *sim.Resource        // host→device DMA engine
	D2H     *sim.Resource        // device→host DMA engine
	CPUPool *sim.Pool            // CPU cores for optimizer workers
	NVMeQ   *sim.Resource        // NVMe submission queue

	GPUMem *mem.Arena // device memory
}

// NewMachine builds one server.
func NewMachine(eng *sim.Engine, p Platform) *Machine {
	return &Machine{
		Eng:     eng,
		Spec:    p,
		Compute: sim.NewSharedProcessor(eng, p.GPU.Name+".sm", p.GPU.PeakFlops),
		H2D:     sim.NewResource(eng, "pcie.h2d"),
		D2H:     sim.NewResource(eng, "pcie.d2h"),
		CPUPool: sim.NewPool(eng, "cpu", p.CPU.Cores),
		NVMeQ:   sim.NewResource(eng, "nvme"),
		GPUMem:  mem.NewArena("gpu", p.GPU.MemBytes),
	}
}

// Stream is a CUDA-like kernel queue on the machine's GPU: every
// kernel pays the launch latency and is capped at a fraction of the SM
// array, and kernels on different streams share the SM array through
// the capacity-shared processor. Issue order within a stream is the
// caller's to enforce (the plan executor starts a kernel only after
// its queue predecessor completes).
type Stream struct {
	m    *Machine
	name string
	// pending holds launched kernels waiting out the launch latency.
	// Every launch waits the same constant latency, so their events
	// fire in launch order and start, cached in fire, pops the head.
	pending sim.Ring[launch]
	fire    func()
}

// launch is one kernel in flight through the launch latency.
type launch struct {
	flops, rate float64
	c           sim.Completer
	tag         int32
}

// NewStream creates a kernel queue.
func (m *Machine) NewStream(name string) *Stream {
	s := &Stream{m: m, name: name}
	s.fire = s.start
	return s
}

// Name returns the stream's label.
func (s *Stream) Name() string { return s.name }

// Launch starts a kernel of the given work (FLOPs) after the launch
// latency, its consumption capped at utilization·peak — the fraction
// of the SM array a kernel from this worker's batch shape can occupy.
// At completion c, if non-nil, receives Complete(tag, start, end) with
// the kernel's span on the SM array.
//
//vet:hotpath
func (s *Stream) Launch(flops, utilization float64, c sim.Completer, tag int32) {
	if utilization <= 0 || utilization > 1 {
		panic(fmt.Sprintf("hw: stream %s got utilization %v outside (0,1]", s.name, utilization))
	}
	s.pending.Push(launch{flops: flops, rate: utilization * s.m.Spec.GPU.PeakFlops, c: c, tag: tag})
	s.m.Eng.Schedule(sim.Time(s.m.Spec.KernelLaunchNS), s.fire)
}

// start hands the oldest launched kernel to the SM array.
//
//vet:hotpath
func (s *Stream) start() {
	l := s.pending.Pop()
	s.m.Compute.Submit(l.flops, l.rate, l.c, l.tag)
}
