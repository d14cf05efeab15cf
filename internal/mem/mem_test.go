package mem

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestArenaAllocFreeAccounting(t *testing.T) {
	a := NewArena("gpu", 100)
	b1, err := a.Alloc(40)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := a.Alloc(60)
	if err != nil {
		t.Fatal(err)
	}
	if b2.Arena() != a || b2.Size() != 60 {
		t.Fatal("block metadata wrong")
	}
	if a.Used() != 100 || a.Free() != 0 || a.Peak() != 100 {
		t.Fatalf("used=%d free=%d peak=%d", a.Used(), a.Free(), a.Peak())
	}
	a.Release(b1)
	if a.Used() != 60 || a.Peak() != 100 {
		t.Fatalf("after free used=%d peak=%d", a.Used(), a.Peak())
	}
	a.Release(b2)
	if a.AllocOps() != 2 || a.FreeOps() != 2 {
		t.Fatalf("ops alloc=%d free=%d", a.AllocOps(), a.FreeOps())
	}
	if a.Name() != "gpu" || a.Capacity() != 100 {
		t.Fatal("metadata wrong")
	}
}

func TestArenaOOM(t *testing.T) {
	a := NewArena("gpu", 100)
	if _, err := a.Alloc(101); !errors.Is(err, ErrOOM) {
		t.Fatalf("want ErrOOM, got %v", err)
	}
	b, _ := a.Alloc(100)
	if _, err := a.Alloc(1); !errors.Is(err, ErrOOM) {
		t.Fatal("full arena must OOM")
	}
	a.Release(b)
	if _, err := a.Alloc(1); err != nil {
		t.Fatal("freed bytes must be reusable")
	}
}

func TestArenaInvalidSize(t *testing.T) {
	a := NewArena("gpu", 100)
	if _, err := a.Alloc(0); err == nil {
		t.Fatal("zero-byte alloc must error")
	}
	if _, err := a.Alloc(-5); err == nil {
		t.Fatal("negative alloc must error")
	}
}

func TestArenaDoubleFreePanics(t *testing.T) {
	a := NewArena("gpu", 100)
	b, _ := a.Alloc(10)
	a.Release(b)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double free")
		}
	}()
	a.Release(b)
}

func TestArenaCrossArenaFreePanics(t *testing.T) {
	a := NewArena("gpu", 100)
	c := NewArena("cpu", 100)
	b, _ := a.Alloc(10)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on cross-arena free")
		}
	}()
	c.Release(b)
}

func TestMustAllocPanicsOnOOM(t *testing.T) {
	a := NewArena("gpu", 10)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.MustAlloc(11)
}

func TestCachingAllocatorReuse(t *testing.T) {
	a := NewArena("gpu", 1000)
	c := NewCachingAllocator(a)
	b1, err := c.Get(100)
	if err != nil {
		t.Fatal(err)
	}
	c.Put(b1)
	if c.CachedBytes() != 100 {
		t.Fatalf("cached %d", c.CachedBytes())
	}
	// Arena bytes stay reserved while cached — the PyTorch behaviour.
	if a.Used() != 100 {
		t.Fatalf("arena used %d, want 100 (cache retains)", a.Used())
	}
	b2, err := c.Get(100)
	if err != nil {
		t.Fatal(err)
	}
	if b2 != b1 {
		t.Fatal("same-size Get must reuse the cached buffer")
	}
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d", c.Hits(), c.Misses())
	}
	if a.AllocOps() != 1 {
		t.Fatalf("raw alloc ops = %d, want 1", a.AllocOps())
	}
}

func TestCachingAllocatorDifferentSizesMiss(t *testing.T) {
	a := NewArena("gpu", 1000)
	c := NewCachingAllocator(a)
	b, _ := c.Get(100)
	c.Put(b)
	if _, err := c.Get(200); err != nil {
		t.Fatal(err)
	}
	if c.Misses() != 2 {
		t.Fatalf("misses = %d, want 2", c.Misses())
	}
}

func TestCachingAllocatorFootprintExceedsWorkingSet(t *testing.T) {
	// The §III-E3 pathology: cycling n distinct layer buffers through a
	// cache retains all of them, OOMing even though only one is live at
	// a time.
	a := NewArena("gpu", 250)
	c := NewCachingAllocator(a)
	for _, size := range []int64{100, 90} {
		b, err := c.Get(size)
		if err != nil {
			t.Fatal(err)
		}
		c.Put(b)
	}
	if _, err := c.Get(80); !errors.Is(err, ErrOOM) {
		t.Fatalf("expected cache-retention OOM, got %v", err)
	}
	c.ReleaseAll()
	if a.Used() != 0 || c.CachedBytes() != 0 {
		t.Fatal("ReleaseAll must drain the cache")
	}
	if _, err := c.Get(80); err != nil {
		t.Fatal("after ReleaseAll allocation must succeed")
	}
}

func TestCachingAllocatorPutFreedPanics(t *testing.T) {
	a := NewArena("gpu", 100)
	c := NewCachingAllocator(a)
	b, _ := a.Alloc(10)
	a.Release(b)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Put(b)
}

func TestRoundRobinPoolReservation(t *testing.T) {
	a := NewArena("gpu", 1000)
	p, err := NewRoundRobinPool(a, 100, 4)
	if err != nil {
		t.Fatal(err)
	}
	// One-off m·k raw allocations at construction.
	if a.AllocOps() != 4 || a.Used() != 400 {
		t.Fatalf("ops=%d used=%d", a.AllocOps(), a.Used())
	}
	if p.Count() != 4 || p.BufSize() != 100 {
		t.Fatal("pool metadata wrong")
	}
	// Acquire/release cycles must not touch the raw allocator.
	for i := 0; i < 20; i++ {
		idx, err := p.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		p.Release(idx)
	}
	if a.AllocOps() != 4 {
		t.Fatalf("recycling performed raw allocations: %d", a.AllocOps())
	}
}

func TestRoundRobinPoolRoundRobinOrder(t *testing.T) {
	a := NewArena("gpu", 1000)
	p, _ := NewRoundRobinPool(a, 10, 3)
	i0, _ := p.Acquire()
	i1, _ := p.Acquire()
	i2, _ := p.Acquire()
	if i0 == i1 || i1 == i2 || i0 == i2 {
		t.Fatal("acquires must hand out distinct buffers")
	}
	if p.InUse() != 3 {
		t.Fatalf("InUse = %d", p.InUse())
	}
	if _, err := p.Acquire(); err == nil {
		t.Fatal("full pool must refuse")
	}
	p.Release(i0)
	i3, err := p.Acquire()
	if err != nil || i3 != i0 {
		t.Fatalf("expected recycled buffer %d, got %d (%v)", i0, i3, err)
	}
}

func TestRoundRobinPoolExhaustedArena(t *testing.T) {
	a := NewArena("gpu", 250)
	if _, err := NewRoundRobinPool(a, 100, 3); !errors.Is(err, ErrOOM) {
		t.Fatal("reservation beyond capacity must OOM")
	}
	// Failed construction must leave the arena clean.
	if a.Used() != 0 {
		t.Fatalf("leaked %d bytes on failed construction", a.Used())
	}
}

func TestRoundRobinPoolDestroy(t *testing.T) {
	a := NewArena("gpu", 1000)
	p, _ := NewRoundRobinPool(a, 100, 3)
	p.Destroy()
	if a.Used() != 0 {
		t.Fatalf("Destroy leaked %d bytes", a.Used())
	}
}

func TestRoundRobinPoolMisusePanics(t *testing.T) {
	a := NewArena("gpu", 1000)
	p, _ := NewRoundRobinPool(a, 100, 2)
	for _, f := range []func(){
		func() { p.Release(5) },
		func() { p.Release(0) }, // not acquired
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
	if _, err := NewRoundRobinPool(a, 100, 0); err == nil {
		t.Fatal("zero-count pool must error")
	}
}

// Property: byte conservation — after any sequence of alloc/free pairs,
// used equals the sum of live block sizes.
func TestPropertyArenaConservation(t *testing.T) {
	f := func(sizes []uint16, freeMask uint32) bool {
		a := NewArena("gpu", 1<<30)
		var live []*Block
		var liveBytes int64
		for i, s := range sizes {
			if i >= 20 {
				break
			}
			size := int64(s%1000) + 1
			b, err := a.Alloc(size)
			if err != nil {
				return false
			}
			if freeMask&(1<<uint(i)) != 0 {
				a.Release(b)
			} else {
				live = append(live, b)
				liveBytes += size
			}
		}
		return a.Used() == liveBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: the round-robin pool never hands out a buffer that is in
// use, for any interleaving of acquires and releases.
func TestPropertyRoundRobinExclusive(t *testing.T) {
	f := func(ops []bool) bool {
		a := NewArena("gpu", 1<<20)
		p, err := NewRoundRobinPool(a, 64, 4)
		if err != nil {
			return false
		}
		held := map[int]bool{}
		var order []int
		for _, acquire := range ops {
			if acquire {
				idx, err := p.Acquire()
				if err != nil {
					if len(held) != 4 {
						return false // refused while buffers were free
					}
					continue
				}
				if held[idx] {
					return false // double hand-out
				}
				held[idx] = true
				order = append(order, idx)
			} else if len(order) > 0 {
				idx := order[0]
				order = order[1:]
				p.Release(idx)
				delete(held, idx)
			}
		}
		return p.InUse() == len(held)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: Acquire probes from the slot after the last one handed out,
// wrapping past the end — the order of a modulo walk — under any mix of
// acquires and releases.
func TestRoundRobinPoolProbeOrderMatchesModuloWalk(t *testing.T) {
	f := func(countRaw uint8, script []byte) bool {
		count := int(countRaw%7) + 1
		p, err := NewRoundRobinPool(NewArena("gpu", 1<<20), 8, count)
		if err != nil {
			return false
		}
		inUse, next := make([]bool, count), 0
		for _, b := range script {
			if b%3 == 0 { // release the buffer b names, if held
				if idx := int(b/3) % count; inUse[idx] {
					inUse[idx] = false
					p.Release(idx)
				}
				continue
			}
			want := -1
			for i := 0; i < count; i++ {
				if idx := (next + i) % count; !inUse[idx] {
					want, inUse[idx], next = idx, true, (idx+1)%count
					break
				}
			}
			got, err := p.Acquire()
			if got != want || (err != nil) != (want < 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
