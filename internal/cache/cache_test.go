package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"supermem/internal/config"
)

// tiny returns a 2-set, 2-way cache: 4 lines of 64 B = 256 B.
func tiny() *Cache {
	return New("tiny", config.CacheConfig{SizeBytes: 256, Ways: 2, LatencyCycles: 1})
}

func addrFor(set, tag uint64) uint64 {
	// 2 sets -> 1 set bit above the 6 offset bits.
	return ((tag << 1) | set) << 6
}

func TestMissThenFillThenHit(t *testing.T) {
	c := tiny()
	a := addrFor(0, 5)
	if c.Access(a, false) {
		t.Fatal("fresh cache hit")
	}
	if _, ev := c.Fill(a, false); ev {
		t.Fatal("fill into empty set evicted")
	}
	if !c.Access(a, false) {
		t.Fatal("miss after fill")
	}
	if !c.Contains(a) {
		t.Fatal("Contains false after fill")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit 1 miss", s)
	}
}

func TestOffsetBitsIgnored(t *testing.T) {
	c := tiny()
	c.Fill(addrFor(0, 1), false)
	for off := uint64(0); off < 64; off += 13 {
		if !c.Access(addrFor(0, 1)+off, false) {
			t.Fatalf("offset %d missed within a filled line", off)
		}
	}
}

func TestLRUEviction(t *testing.T) {
	c := tiny()
	a, b, d := addrFor(0, 1), addrFor(0, 2), addrFor(0, 3)
	c.Fill(a, false)
	c.Fill(b, false)
	c.Access(a, false) // a is now MRU; b is LRU
	v, ev := c.Fill(d, false)
	if !ev {
		t.Fatal("fill into full set did not evict")
	}
	if v.Addr != b {
		t.Fatalf("evicted %#x, want LRU %#x", v.Addr, b)
	}
	if c.Contains(b) || !c.Contains(a) || !c.Contains(d) {
		t.Fatal("wrong lines present after eviction")
	}
}

func TestDirtyEvictionReported(t *testing.T) {
	c := tiny()
	a, b, d := addrFor(1, 1), addrFor(1, 2), addrFor(1, 3)
	c.Fill(a, true) // dirty
	c.Fill(b, false)
	v, ev := c.Fill(d, false) // evicts a (LRU)
	if !ev || v.Addr != a || !v.Dirty {
		t.Fatalf("eviction = %+v,%v, want dirty %#x", v, ev, a)
	}
	if c.Stats().Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", c.Stats().Writebacks)
	}
}

func TestWriteAccessMarksDirty(t *testing.T) {
	c := tiny()
	a := addrFor(0, 1)
	c.Fill(a, false)
	if c.Dirty(a) {
		t.Fatal("clean fill reported dirty")
	}
	c.Access(a, true)
	if !c.Dirty(a) {
		t.Fatal("write hit did not mark dirty")
	}
}

func TestCleanReturnsOwnership(t *testing.T) {
	c := tiny()
	a := addrFor(0, 1)
	c.Fill(a, true)
	if !c.Clean(a) {
		t.Fatal("Clean on dirty line returned false")
	}
	if c.Clean(a) {
		t.Fatal("Clean on already-clean line returned true")
	}
	if c.Dirty(a) {
		t.Fatal("line still dirty after Clean")
	}
	if !c.Contains(a) {
		t.Fatal("Clean removed the line")
	}
	if c.Clean(addrFor(0, 9)) {
		t.Fatal("Clean on absent line returned true")
	}
}

func TestInvalidate(t *testing.T) {
	c := tiny()
	a := addrFor(1, 4)
	c.Fill(a, true)
	present, dirty := c.Invalidate(a)
	if !present || !dirty {
		t.Fatalf("Invalidate = %v,%v, want true,true", present, dirty)
	}
	if c.Contains(a) {
		t.Fatal("line present after Invalidate")
	}
	present, _ = c.Invalidate(a)
	if present {
		t.Fatal("second Invalidate found the line")
	}
}

func TestRefillExistingUpdatesDirty(t *testing.T) {
	c := tiny()
	a := addrFor(0, 1)
	c.Fill(a, false)
	if _, ev := c.Fill(a, true); ev {
		t.Fatal("refill of present line evicted")
	}
	if !c.Dirty(a) {
		t.Fatal("refill with dirty=true did not mark dirty")
	}
	// Refill with dirty=false must NOT clear an existing dirty bit.
	c.Fill(a, false)
	if !c.Dirty(a) {
		t.Fatal("clean refill cleared the dirty bit")
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func TestDirtyLines(t *testing.T) {
	c := tiny()
	c.Fill(addrFor(0, 1), true)
	c.Fill(addrFor(1, 2), true)
	c.Fill(addrFor(1, 3), false)
	dirty := c.DirtyLines()
	if len(dirty) != 2 {
		t.Fatalf("DirtyLines = %v, want 2 lines", dirty)
	}
	seen := map[uint64]bool{}
	for _, a := range dirty {
		seen[a] = true
	}
	if !seen[addrFor(0, 1)] || !seen[addrFor(1, 2)] {
		t.Fatalf("DirtyLines = %v, missing expected addresses", dirty)
	}
}

func TestVictimAddressRoundTrip(t *testing.T) {
	// Use a realistic geometry and verify the reconstructed victim
	// address is the line originally filled.
	c := New("l1", config.CacheConfig{SizeBytes: 32 << 10, Ways: 8, LatencyCycles: 2})
	base := uint64(0x12340) &^ 63
	// Fill 9 lines that all map to the same set (stride = sets*64).
	stride := uint64(64 * 64) // 64 sets in a 32KB 8-way cache
	var evictedAddr uint64
	for i := uint64(0); i < 9; i++ {
		v, ev := c.Fill(base+i*stride, false)
		if ev {
			evictedAddr = v.Addr
		}
	}
	if evictedAddr != base {
		t.Fatalf("victim address = %#x, want %#x", evictedAddr, base)
	}
}

func TestSetIsolation(t *testing.T) {
	c := tiny()
	// Fill set 0 to capacity; set 1 must be unaffected.
	c.Fill(addrFor(0, 1), false)
	c.Fill(addrFor(0, 2), false)
	c.Fill(addrFor(0, 3), false)
	if c.Contains(addrFor(1, 1)) {
		t.Fatal("set 1 has a line never filled")
	}
	if _, ev := c.Fill(addrFor(1, 1), false); ev {
		t.Fatal("fill into empty set 1 evicted")
	}
}

func TestHitRate(t *testing.T) {
	c := tiny()
	if got := c.Stats().HitRate(); got != 0 {
		t.Fatalf("untouched HitRate = %v, want 0", got)
	}
	a := addrFor(0, 1)
	c.Access(a, false) // miss
	c.Fill(a, false)
	c.Access(a, false) // hit
	c.Access(a, false) // hit
	if got := c.Stats().HitRate(); got < 0.66 || got > 0.67 {
		t.Fatalf("HitRate = %v, want 2/3", got)
	}
}

// Property: the cache never holds more lines than its capacity, and a
// just-filled line is always present.
func TestQuickCapacityInvariant(t *testing.T) {
	f := func(seed int64, ops uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New("q", config.CacheConfig{SizeBytes: 1024, Ways: 4, LatencyCycles: 1})
		capacity := 1024 / 64
		for i := 0; i < int(ops%512); i++ {
			addr := uint64(rng.Intn(4096)) &^ 63
			switch rng.Intn(4) {
			case 0:
				c.Access(addr, rng.Intn(2) == 0)
			case 1:
				c.Fill(addr, rng.Intn(2) == 0)
				if !c.Contains(addr) {
					return false
				}
			case 2:
				c.Clean(addr)
			case 3:
				c.Invalidate(addr)
			}
			if c.Len() > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: DirtyLines agrees with per-line Dirty queries after a random
// workload.
func TestQuickDirtyTracking(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New("q", config.CacheConfig{SizeBytes: 512, Ways: 2, LatencyCycles: 1})
		for i := 0; i < 200; i++ {
			addr := uint64(rng.Intn(2048)) &^ 63
			if rng.Intn(2) == 0 {
				c.Fill(addr, rng.Intn(2) == 0)
			} else {
				c.Access(addr, rng.Intn(2) == 0)
			}
		}
		dirty := map[uint64]bool{}
		for _, a := range c.DirtyLines() {
			dirty[a] = true
		}
		for addr := uint64(0); addr < 2048; addr += 64 {
			if c.Dirty(addr) != dirty[addr] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestNewPanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted invalid geometry")
		}
	}()
	New("bad", config.CacheConfig{SizeBytes: 100, Ways: 3})
}

// BenchmarkCacheAccess is the lookup the core models make on every
// memory operation: a full L1-geometry cache probed with a fixed mix of
// three hits to one miss, each miss scanning every way of its set.
func BenchmarkCacheAccess(b *testing.B) {
	cfg := config.Default().L1
	c := New("L1", cfg)
	lines := uint64(cfg.SizeBytes / config.LineSize)
	for l := uint64(0); l < lines; l++ {
		c.Fill(l*config.LineSize, false)
	}
	addrs := make([]uint64, 2*lines)
	for i := range addrs {
		l := uint64(i) % lines
		if i%4 == 3 {
			l += lines // the same set under a tag never filled
		}
		addrs[i] = l * config.LineSize
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i%len(addrs)], false)
	}
}
