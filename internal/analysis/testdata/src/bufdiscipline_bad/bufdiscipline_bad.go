// Package bufdiscipline_bad is a fixture: allocator blocks that are
// dropped or held without ever being released or escaping — the leak
// class §III-E's user-level buffer management exists to prevent.
package bufdiscipline_bad

import "stronghold/internal/mem"

// Drop allocates straight onto the floor.
func Drop(a *mem.Arena) {
	a.Alloc(64) // want "block from Arena.Alloc is dropped"
}

// Blank allocates into the blank identifier.
func Blank(a *mem.Arena) error {
	_, err := a.Alloc(64) // want "block from Arena.Alloc assigned to _"
	return err
}

// Hold gets a cached buffer, reads it, and forgets to put it back.
func Hold(c *mem.CachingAllocator) (int64, error) {
	b, err := c.Get(128) // want "block from CachingAllocator.Get is never released or stored"
	if err != nil {
		return 0, err
	}
	return b.Size(), nil
}
