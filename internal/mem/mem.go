// Package mem provides byte-accurate memory accounting for the
// simulated device memory, plus the two buffer-reuse schemes the paper
// compares (§III-E3): a PyTorch-style caching allocator and
// STRONGHOLD's user-level round-robin reserved-buffer pool. The arena
// counts the raw allocations each scheme performs; capacity questions
// (Figure 6's largest trainable model) are answered by modelcfg's
// per-tier footprint model.
package mem

import (
	"errors"
	"fmt"
)

// ErrOOM is returned (wrapped) when an arena cannot satisfy an
// allocation — the simulated analogue of CUDA out-of-memory.
var ErrOOM = errors.New("out of memory")

// Arena is one memory space (such as GPU HBM) with a hard capacity. It tracks live bytes, the high-water mark, and
// the number of raw allocation operations (the expensive
// cudaMalloc/cudaFree calls §III-E3 is about).
type Arena struct {
	name     string
	capacity int64
	used     int64
	peak     int64
	allocOps uint64
	freeOps  uint64
}

// NewArena creates a memory space of the given capacity in bytes.
func NewArena(name string, capacity int64) *Arena {
	if capacity <= 0 {
		panic(fmt.Sprintf("mem: arena %s needs positive capacity", name))
	}
	return &Arena{name: name, capacity: capacity}
}

// Block is a live allocation.
type Block struct {
	arena *Arena
	size  int64
	freed bool
}

// Size returns the block's size in bytes.
func (b *Block) Size() int64 { return b.size }

// Name returns the arena's label.
func (a *Arena) Name() string { return a.name }

// Capacity returns the arena's total bytes.
//
//vet:ignore testonly the hw tests check each device arena's size with it
func (a *Arena) Capacity() int64 { return a.capacity }

// Used returns currently allocated bytes.
//
//vet:ignore testonly the arena-balance oracles of the core tests read it after every run
func (a *Arena) Used() int64 { return a.used }

// Peak returns the allocation high-water mark.
//
//vet:ignore testonly the core tests check a degraded run's GPU peak with it
func (a *Arena) Peak() int64 { return a.peak }

// AllocOps returns the count of raw allocation operations performed.
func (a *Arena) AllocOps() uint64 { return a.allocOps }

// FreeOps returns the count of raw free operations performed.
//
//vet:ignore testonly the arena-balance oracles of the core tests pair it with AllocOps
func (a *Arena) FreeOps() uint64 { return a.freeOps }

// Alloc reserves size bytes, or returns an error wrapping ErrOOM.
func (a *Arena) Alloc(size int64) (*Block, error) {
	if size <= 0 {
		return nil, fmt.Errorf("mem: %s: non-positive allocation of %d bytes", a.name, size)
	}
	if a.used+size > a.capacity {
		return nil, fmt.Errorf("mem: %s: alloc %d bytes with %d/%d used: %w",
			a.name, size, a.used, a.capacity, ErrOOM)
	}
	a.used += size
	if a.used > a.peak {
		a.peak = a.used
	}
	a.allocOps++
	return &Block{arena: a, size: size}, nil
}

// Release frees a block. Double-free panics (it is a simulator bug, not
// a runtime condition).
func (a *Arena) Release(b *Block) {
	if b.arena != a {
		panic(fmt.Sprintf("mem: block belongs to %s, freed in %s", b.arena.name, a.name))
	}
	if b.freed {
		panic(fmt.Sprintf("mem: double free in %s", a.name))
	}
	b.freed = true
	a.used -= b.size
	a.freeOps++
}
