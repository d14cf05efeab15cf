// Package bufdiscipline_clean is a fixture: every allocated block is
// released on its local path or escapes the function.
package bufdiscipline_clean

import "stronghold/internal/mem"

// Roundtrip allocates, measures, and releases.
func Roundtrip(a *mem.Arena) (int64, error) {
	b, err := a.Alloc(64)
	if err != nil {
		return 0, err
	}
	size := b.Size()
	a.Release(b)
	return size, nil
}

// Borrow takes a cached buffer and puts it back when done.
func Borrow(c *mem.CachingAllocator) error {
	b, err := c.Get(128)
	if err != nil {
		return err
	}
	defer c.Put(b)
	return nil
}

// Handoff returns the block: ownership escapes to the caller.
func Handoff(a *mem.Arena) (*mem.Block, error) {
	return a.Alloc(256)
}

// Stash stores the block in a struct field: it escapes.
type Stash struct{ buf *mem.Block }

func (s *Stash) Fill(a *mem.Arena) (err error) {
	s.buf, err = a.Alloc(32)
	return err
}
