package mem

// Accessors and helpers only the tests of this package use.

// Arena returns the owning memory space.
func (b *Block) Arena() *Arena { return b.arena }

// Free returns remaining bytes.
func (a *Arena) Free() int64 { return a.capacity - a.used }

// MustAlloc is Alloc for callers that have already sized their request;
// it panics on failure.
func (a *Arena) MustAlloc(size int64) *Block {
	b, err := a.Alloc(size)
	if err != nil {
		panic(err)
	}
	return b
}

// CachedBytes returns bytes held in free lists.
func (c *CachingAllocator) CachedBytes() int64 { return c.cached }

// BufSize returns the current per-buffer size.
func (p *RoundRobinPool) BufSize() int64 { return p.bufSize }

// Count returns the number of reserved buffers.
func (p *RoundRobinPool) Count() int { return len(p.bufs) }

// InUse returns the number of buffers currently held.
func (p *RoundRobinPool) InUse() int {
	n := 0
	for _, u := range p.inUse {
		if u {
			n++
		}
	}
	return n
}
