package mem

import (
	"fmt"
	"sort"
)

// CachingAllocator reproduces the PyTorch buffer-caching behaviour the
// paper describes (§III-E3): freed buffers go to per-size free lists
// and are reused without touching the raw allocator. For an n-layer
// model with k tensors per layer this performs up to n·k raw allocation
// operations and then retains all n·k buffers — which is exactly why it
// cannot serve models whose total buffer set exceeds device memory.
type CachingAllocator struct {
	arena    *Arena
	free     map[int64][]*Block
	cached   int64 // bytes held in free lists
	hits     uint64
	misses   uint64
	released bool
}

// NewCachingAllocator wraps arena with a caching layer.
func NewCachingAllocator(arena *Arena) *CachingAllocator {
	return &CachingAllocator{arena: arena, free: make(map[int64][]*Block)}
}

// Get returns a buffer of exactly size bytes, reusing a cached one when
// available.
func (c *CachingAllocator) Get(size int64) (*Block, error) {
	if list := c.free[size]; len(list) > 0 {
		b := list[len(list)-1]
		c.free[size] = list[:len(list)-1]
		c.cached -= size
		c.hits++
		return b, nil
	}
	c.misses++
	return c.arena.Alloc(size)
}

// Put returns a buffer to the cache. The underlying arena bytes stay
// reserved — the PyTorch behaviour that inflates footprint.
func (c *CachingAllocator) Put(b *Block) {
	if b.freed {
		panic("mem: caching allocator got a freed block")
	}
	c.free[b.size] = append(c.free[b.size], b)
	c.cached += b.size
}

// Hits returns cache-hit count; Misses returns raw allocations.
func (c *CachingAllocator) Hits() uint64   { return c.hits }
func (c *CachingAllocator) Misses() uint64 { return c.misses }

// ReleaseAll drops every cached buffer back to the arena (the
// "empty_cache" escape hatch).
func (c *CachingAllocator) ReleaseAll() {
	sizes := make([]int64, 0, len(c.free))
	for s := range c.free {
		sizes = append(sizes, s)
	}
	sort.Slice(sizes, func(i, j int) bool { return sizes[i] < sizes[j] })
	for _, s := range sizes {
		for _, b := range c.free[s] {
			c.arena.Release(b)
		}
		delete(c.free, s)
	}
	c.cached = 0
}

// RoundRobinPool is STRONGHOLD's user-level GPU buffer manager
// (§III-E3): a fixed set of reserved buffers sized for the working
// window, allocated once at warm-up (m·k raw operations instead of n·k)
// and recycled round-robin as layers move through the window.
type RoundRobinPool struct {
	arena   *Arena
	bufSize int64
	bufs    []*Block
	inUse   []bool
	next    int
}

// NewRoundRobinPool reserves count buffers of bufSize bytes up front.
func NewRoundRobinPool(arena *Arena, bufSize int64, count int) (*RoundRobinPool, error) {
	if count <= 0 {
		return nil, fmt.Errorf("mem: round-robin pool needs positive buffer count, got %d", count)
	}
	p := &RoundRobinPool{arena: arena, bufSize: bufSize, inUse: make([]bool, count)}
	for i := 0; i < count; i++ {
		b, err := arena.Alloc(bufSize)
		if err != nil {
			// Roll back partial reservation so a failed construction
			// leaves the arena unchanged.
			for _, ok := range p.bufs {
				arena.Release(ok)
			}
			return nil, fmt.Errorf("mem: reserving window buffer %d/%d: %w", i+1, count, err)
		}
		p.bufs = append(p.bufs, b)
	}
	return p, nil
}

// Acquire hands out the next free buffer in round-robin order, or an
// error when every buffer is in use (the window is full). The probe
// wraps by comparison, not division: it runs on every layer visit.
func (p *RoundRobinPool) Acquire() (int, error) {
	idx := p.next
	for range p.bufs {
		if !p.inUse[idx] {
			p.inUse[idx] = true
			p.next = p.wrap(idx + 1)
			return idx, nil
		}
		idx = p.wrap(idx + 1)
	}
	return -1, fmt.Errorf("mem: all %d window buffers in use", len(p.bufs))
}

// wrap maps i in [0, Count()] back into [0, Count()).
func (p *RoundRobinPool) wrap(i int) int {
	if i == len(p.bufs) {
		return 0
	}
	return i
}

// Release returns buffer idx to the pool.
func (p *RoundRobinPool) Release(idx int) {
	if idx < 0 || idx >= len(p.bufs) {
		panic(fmt.Sprintf("mem: bad buffer index %d", idx))
	}
	if !p.inUse[idx] {
		panic(fmt.Sprintf("mem: buffer %d released while free", idx))
	}
	p.inUse[idx] = false
}

// Destroy releases every reserved buffer back to the arena.
func (p *RoundRobinPool) Destroy() {
	for i, b := range p.bufs {
		if p.inUse[i] {
			panic(fmt.Sprintf("mem: destroying pool with buffer %d in use", i))
		}
		p.arena.Release(b)
	}
	p.bufs = nil
	p.inUse = nil
}
