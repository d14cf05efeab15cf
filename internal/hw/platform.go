// Package hw models the paper's evaluation hardware on top of the
// discrete-event engine: GPUs with capacity-shared SMs and CUDA-like
// streams, H2D/D2H copy engines over PCIe, multi-core CPU worker pools,
// NVMe queues, and the cluster fabric. All constants live in the
// platform specs below so every experiment shares one calibration.
package hw

import "stronghold/internal/sim"

// GB is 2^30 bytes.
const GB = int64(1) << 30

// GPUSpec describes a GPU device.
type GPUSpec struct {
	Name      string
	MemBytes  int64   // device memory capacity
	PeakFlops float64 // peak FP32 FLOP/s the SM array can sustain
	SMs       int     // streaming multiprocessors (concurrency bound)
	// MemBandwidth is device-memory bandwidth in bytes/s; used for
	// memory-bound work such as on-GPU optimizer updates.
	MemBandwidth float64
}

// PCIeSpec describes the host-device interconnect.
type PCIeSpec struct {
	// BandwidthPerDir is the effective bytes/s in each direction (H2D
	// and D2H have independent DMA engines).
	BandwidthPerDir float64
	// LatencyNS is the fixed per-transfer setup latency.
	LatencyNS int64
	// UnpinnedFactor scales bandwidth for transfers from pageable
	// (non-pinned) host memory: per-tensor staged copies with implicit
	// synchronization sustain only ~1.3 GB/s on PCIe 3 — the measured
	// penalty §III-E3's pinned-buffer scheme removes.
	UnpinnedFactor float64
}

// CopyTime returns the virtual time of one transfer of the given size
// in either direction: the setup latency plus the bytes at the
// per-direction bandwidth, scaled by UnpinnedFactor for pageable host
// memory.
func (p PCIeSpec) CopyTime(bytes int64, pinned bool) sim.Time {
	bw := p.BandwidthPerDir
	if !pinned {
		bw *= p.UnpinnedFactor
	}
	return p.LatencyNS + sim.Time(float64(bytes)/bw*1e9)
}

// CPUSpec describes the host processor and memory.
type CPUSpec struct {
	Cores    int
	MemBytes int64 // physical DRAM
	// UsableMemBytes is DRAM actually available for model states after
	// OS/runtime/framework reserves — the binding constant in Fig. 6.
	UsableMemBytes int64
	// MemBandwidth is aggregate DRAM bytes/s, the bottleneck for
	// CPU-side Adam (which is memory-bound, not compute-bound).
	MemBandwidth float64
	// FlopsPerCore is per-core FP32 throughput for compute-bound work.
	FlopsPerCore float64
}

// NVMeSpec describes the secondary storage tier (§III-G).
type NVMeSpec struct {
	Bytes     int64
	ReadBW    float64 // bytes/s
	WriteBW   float64 // bytes/s
	LatencyNS int64
}

// ReadTime returns the virtual time of one read of the given size from
// storage into host memory: the access latency plus the bytes at the
// read bandwidth.
func (n NVMeSpec) ReadTime(bytes int64) sim.Time {
	return n.LatencyNS + sim.Time(float64(bytes)/n.ReadBW*1e9)
}

// WriteTime returns the virtual time of one write of the given size
// from host memory to storage.
func (n NVMeSpec) WriteTime(bytes int64) sim.Time {
	return n.LatencyNS + sim.Time(float64(bytes)/n.WriteBW*1e9)
}

// NetworkSpec describes the cluster fabric.
type NetworkSpec struct {
	BandwidthPerLink float64 // bytes/s per node NIC
	LatencyNS        int64
}

// Platform bundles one evaluation platform.
type Platform struct {
	Name  string
	GPU   GPUSpec
	PCIe  PCIeSpec
	CPU   CPUSpec
	NVMe  NVMeSpec
	Net   NetworkSpec
	Nodes int // GPU servers in the platform
	// AsyncCallNS is the fixed overhead of one asynchronous runtime
	// call — the paper's t_async (§III-D): hook dispatch plus CUDA
	// async-API launch cost.
	AsyncCallNS int64
	// KernelLaunchNS is the fixed per-kernel launch overhead.
	KernelLaunchNS int64
	// AllocOpNS is the cost of one raw device allocation
	// (cudaMalloc/cudaFree with its implicit synchronization), the
	// quantity §III-E3's memory-management optimization removes.
	AllocOpNS int64
}

// V100Platform returns the paper's main platform: one 32 GB V100, 2×24
// Xeon 8163 cores, 755 GB DDR4, 2 TB PCIe-4 NVMe (§V-A).
//
// Calibration notes: peak FP32 on V100 is 15.7 TFLOP/s; effective PCIe
// 3.0 ×16 bandwidth ≈ 12.8 GB/s per direction; usable host memory is
// physical DRAM minus a measured ~123 GB OS/runtime/pinning reserve,
// chosen so the capacity model reproduces the paper's 39.5 B-parameter
// STRONGHOLD maximum ((755−123) GB / 16 B per parameter ≈ 39.5 B).
func V100Platform() Platform {
	return Platform{
		Name: "v100-server",
		GPU: GPUSpec{
			Name:         "V100-32GB",
			MemBytes:     32 * GB,
			PeakFlops:    15.7e12,
			SMs:          80,
			MemBandwidth: 900e9,
		},
		PCIe: PCIeSpec{BandwidthPerDir: 12.8e9, LatencyNS: 10_000, UnpinnedFactor: 0.1},
		CPU: CPUSpec{
			Cores:          48,
			MemBytes:       755 * GB,
			UsableMemBytes: 632 * GB,
			MemBandwidth:   100e9,
			FlopsPerCore:   60e9,
		},
		NVMe:           NVMeSpec{Bytes: 2048 * GB, ReadBW: 7e9, WriteBW: 3.5e9, LatencyNS: 80_000},
		Net:            NetworkSpec{BandwidthPerLink: 12.5e9, LatencyNS: 20_000}, // 100 Gbps single-node NIC
		Nodes:          1,
		AsyncCallNS:    8_000,
		KernelLaunchNS: 5_000,
		AllocOpNS:      120_000,
	}
}

// A10ClusterPlatform returns the 8-node A10 cluster: 24 GB Ampere A10
// per node, 2×64 Xeon 8369B cores, 1 TB DDR4, 800 Gbps fabric (§V-A).
//
// Calibration notes: A10 FP32 peak is 31.2 TFLOP/s; PCIe 4.0 ×16 ≈ 25
// GB/s per direction; usable host memory per node is bounded by the
// cloud allocation's locked-memory limit (~165 GB), which reproduces the
// paper's 82.1 B cluster maximum for STRONGHOLD under 8-way model
// parallelism (8 × 165 GB / 16 B ≈ 82.5 B).
func A10ClusterPlatform() Platform {
	return Platform{
		Name: "a10-cluster",
		GPU: GPUSpec{
			Name:         "A10-24GB",
			MemBytes:     24 * GB,
			PeakFlops:    31.2e12,
			SMs:          72,
			MemBandwidth: 600e9,
		},
		PCIe: PCIeSpec{BandwidthPerDir: 25e9, LatencyNS: 8_000, UnpinnedFactor: 0.1},
		CPU: CPUSpec{
			Cores:          128,
			MemBytes:       1024 * GB,
			UsableMemBytes: 165 * GB,
			MemBandwidth:   160e9,
			FlopsPerCore:   70e9,
		},
		NVMe:           NVMeSpec{Bytes: 2048 * GB, ReadBW: 7e9, WriteBW: 3.5e9, LatencyNS: 80_000},
		Net:            NetworkSpec{BandwidthPerLink: 100e9, LatencyNS: 5_000}, // 800 Gbps
		Nodes:          8,
		AsyncCallNS:    8_000,
		KernelLaunchNS: 5_000,
		AllocOpNS:      120_000,
	}
}
