package alloc

import (
	"testing"
	"testing/quick"

	"supermem/internal/config"
)

func TestAllocAligned(t *testing.T) {
	h, err := NewHeap(Region{Base: 0, Size: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []uint64{1, 63, 64, 65, 4096} {
		addr, err := h.Alloc(size)
		if err != nil {
			t.Fatal(err)
		}
		if addr%config.LineSize != 0 {
			t.Fatalf("Alloc(%d) = %#x, not line-aligned", size, addr)
		}
	}
}

func TestAllocNoOverlap(t *testing.T) {
	h, _ := NewHeap(Region{Base: 4096, Size: 1 << 16})
	type extent struct{ a, b uint64 }
	var got []extent
	for i := 0; i < 100; i++ {
		size := uint64(i%5*64 + 1)
		addr, err := h.Alloc(size)
		if err != nil {
			t.Fatal(err)
		}
		rs := (size + 63) &^ 63
		for _, e := range got {
			if addr < e.b && addr+rs > e.a {
				t.Fatalf("extent %#x+%d overlaps %#x..%#x", addr, rs, e.a, e.b)
			}
		}
		got = append(got, extent{addr, addr + rs})
	}
}

func TestRoundRobinAcrossRegions(t *testing.T) {
	h, _ := NewHeap(
		Region{Base: 0, Size: 1 << 16},
		Region{Base: 1 << 30, Size: 1 << 16},
	)
	a, _ := h.Alloc(64)
	b, _ := h.Alloc(64)
	c, _ := h.Alloc(64)
	if a >= 1<<30 || b < 1<<30 || c >= 1<<30 {
		t.Fatalf("allocations not striped: %#x %#x %#x", a, b, c)
	}
}

func TestFreeRecycles(t *testing.T) {
	h, _ := NewHeap(Region{Base: 0, Size: 1 << 12})
	a, _ := h.Alloc(128)
	h.Free(a, 128)
	b, err := h.Alloc(128)
	if err != nil {
		t.Fatal(err)
	}
	if b != a {
		t.Fatalf("recycled allocation = %#x, want %#x", b, a)
	}
}

func TestOutOfMemory(t *testing.T) {
	h, _ := NewHeap(Region{Base: 0, Size: 128})
	if _, err := h.Alloc(64); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Alloc(128); err == nil {
		t.Fatal("overcommit succeeded")
	}
	// The remaining 64 bytes are still usable.
	if _, err := h.Alloc(64); err != nil {
		t.Fatalf("remaining space unusable: %v", err)
	}
}

func TestRemaining(t *testing.T) {
	h, _ := NewHeap(Region{Base: 0, Size: 1024})
	if h.Remaining() != 1024 {
		t.Fatalf("Remaining = %d, want 1024", h.Remaining())
	}
	h.Alloc(100) // rounds to 128
	if h.Remaining() != 1024-128 {
		t.Fatalf("Remaining = %d, want %d", h.Remaining(), 1024-128)
	}
}

func TestInvalidRegions(t *testing.T) {
	cases := []struct {
		name string
		rs   []Region
	}{
		{"none", nil},
		{"empty", []Region{{Base: 0, Size: 0}}},
		{"unaligned base", []Region{{Base: 7, Size: 128}}},
		{"unaligned size", []Region{{Base: 0, Size: 100}}},
	}
	for _, c := range cases {
		if _, err := NewHeap(c.rs...); err == nil {
			t.Errorf("%s: NewHeap accepted invalid regions", c.name)
		}
	}
}

// Property: allocations stay inside their regions.
func TestQuickInRegion(t *testing.T) {
	f := func(sizes []uint16) bool {
		h, err := NewHeap(Region{Base: 1 << 20, Size: 1 << 20})
		if err != nil {
			return false
		}
		for _, s := range sizes {
			addr, err := h.Alloc(uint64(s))
			if err != nil {
				continue // pool exhausted is fine
			}
			if addr < 1<<20 || addr+uint64(s) > 2<<20 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
