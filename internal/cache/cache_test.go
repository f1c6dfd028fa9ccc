package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"supermem/internal/config"
)

// dirtyAt reports whether addr's line is present and dirty, reading
// its set directly so the check leaves LRU state alone.
func dirtyAt(c *Cache, addr uint64) bool {
	ways, i := c.find(addr)
	return i >= 0 && ways[i]&1 != 0
}

// validLines counts the cache's valid ways.
func validLines(c *Cache) int {
	n := 0
	for _, e := range c.lines {
		if e != 0 {
			n++
		}
	}
	return n
}

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
	if dirtyAt(c, a) {
		t.Fatal("clean fill reported dirty")
	}
	c.Access(a, true)
	if !dirtyAt(c, a) {
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
	if dirtyAt(c, a) {
		t.Fatal("line still dirty after Clean")
	}
	if !c.Contains(a) {
		t.Fatal("Clean removed the line")
	}
	if c.Clean(addrFor(0, 9)) {
		t.Fatal("Clean on absent line returned true")
	}
}

func TestRefillExistingUpdatesDirty(t *testing.T) {
	c := tiny()
	a := addrFor(0, 1)
	c.Fill(a, false)
	if _, ev := c.Fill(a, true); ev {
		t.Fatal("refill of present line evicted")
	}
	if !dirtyAt(c, a) {
		t.Fatal("refill with dirty=true did not mark dirty")
	}
	// Refill with dirty=false must NOT clear an existing dirty bit.
	c.Fill(a, false)
	if !dirtyAt(c, a) {
		t.Fatal("clean refill cleared the dirty bit")
	}
	if n := validLines(c); n != 1 {
		t.Fatalf("%d valid lines, want 1", n)
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

// refCache is a reference LRU model laid out as an array of way
// structs per set with LRU stamps, the straightforward form the
// recency-ordered sets must agree with.
type refCache struct {
	sets  [][]refWay
	nsets uint64
	tick  uint64
}

type refWay struct {
	line         uint64
	valid, dirty bool
	used         uint64
}

func newRef(cfg config.CacheConfig) *refCache {
	r := &refCache{nsets: uint64(cfg.Sets())}
	r.sets = make([][]refWay, r.nsets)
	for i := range r.sets {
		r.sets[i] = make([]refWay, cfg.Ways)
	}
	return r
}

func (r *refCache) find(addr uint64) *refWay {
	line := addr / config.LineSize
	ws := r.sets[line%r.nsets]
	for i := range ws {
		if ws[i].valid && ws[i].line == line {
			return &ws[i]
		}
	}
	return nil
}

func (r *refCache) access(addr uint64, write bool) bool {
	w := r.find(addr)
	if w == nil {
		return false
	}
	r.tick++
	w.used = r.tick
	w.dirty = w.dirty || write
	return true
}

func (r *refCache) fill(addr uint64, dirty bool) (Victim, bool) {
	r.tick++
	if w := r.find(addr); w != nil {
		w.used = r.tick
		w.dirty = w.dirty || dirty
		return Victim{}, false
	}
	line := addr / config.LineSize
	ws := r.sets[line%r.nsets]
	victim := &ws[0]
	for i := range ws {
		if !ws[i].valid {
			victim = &ws[i]
			break
		}
		if ws[i].used < victim.used {
			victim = &ws[i]
		}
	}
	v, evicted := Victim{Addr: victim.line * config.LineSize, Dirty: victim.dirty}, victim.valid
	*victim = refWay{line: line, valid: true, dirty: dirty, used: r.tick}
	if !evicted {
		v = Victim{}
	}
	return v, evicted
}

func (r *refCache) clean(addr uint64) bool {
	w := r.find(addr)
	if w == nil || !w.dirty {
		return false
	}
	w.dirty = false
	return true
}

// Property: on a random stream of operations, every Access, Fill, Clean
// and Contains result, every displaced victim's address and dirty bit,
// and the statistics match the reference model.
func TestQuickMatchesReference(t *testing.T) {
	f := func(seed int64, geom uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := config.CacheConfig{SizeBytes: 1024 << (geom % 3), Ways: 1 << (geom / 3 % 4), LatencyCycles: 1}
		c, ref := New("q", cfg), newRef(cfg)
		var want Stats
		span := 4 * cfg.SizeBytes
		for i := 0; i < 2000; i++ {
			addr := uint64(rng.Intn(span))
			switch op := rng.Intn(4); op {
			case 0:
				write := rng.Intn(2) == 0
				hit := ref.access(addr, write)
				if hit {
					want.Hits++
				} else {
					want.Misses++
				}
				if c.Access(addr, write) != hit {
					t.Logf("op %d: Access(%#x, %v) disagrees", i, addr, write)
					return false
				}
			case 1:
				dirty := rng.Intn(2) == 0
				wv, wev := ref.fill(addr, dirty)
				if wev {
					want.Evictions++
					if wv.Dirty {
						want.Writebacks++
					}
				}
				if v, ev := c.Fill(addr, dirty); v != wv || ev != wev {
					t.Logf("op %d: Fill(%#x, %v) = %+v,%v, want %+v,%v", i, addr, dirty, v, ev, wv, wev)
					return false
				}
			case 2:
				if c.Clean(addr) != ref.clean(addr) {
					t.Logf("op %d: Clean(%#x) disagrees", i, addr)
					return false
				}
			case 3:
				if c.Contains(addr) != (ref.find(addr) != nil) {
					t.Logf("op %d: Contains(%#x) disagrees", i, addr)
					return false
				}
			}
		}
		if c.Stats() != want {
			t.Logf("stats %+v, want %+v", c.Stats(), want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: however Access, Fill, Clean and Contains interleave, a
// filled line is present right after its Fill and the cache never holds
// more valid lines than its capacity.
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
				c.Contains(addr)
			}
			if validLines(c) > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: a line is dirty exactly when, since it last came in, it was
// filled dirty or written, and an evicted line's victim carries the
// dirty bit it had. The expected set is built only from what Access and
// Fill return, so it holds whichever way the replacement policy picks.
func TestQuickDirtyTracking(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New("q", config.CacheConfig{SizeBytes: 512, Ways: 2, LatencyCycles: 1})
		dirty := map[uint64]bool{}
		for i := 0; i < 200; i++ {
			addr := uint64(rng.Intn(2048)) &^ 63
			write := rng.Intn(2) == 0
			if rng.Intn(2) == 0 {
				v, ev := c.Fill(addr, write)
				if ev {
					if v.Dirty != dirty[v.Addr] {
						return false
					}
					delete(dirty, v.Addr)
				}
				dirty[addr] = dirty[addr] || write
			} else if c.Access(addr, write) {
				dirty[addr] = dirty[addr] || write
			}
		}
		for addr := uint64(0); addr < 2048; addr += 64 {
			if dirtyAt(c, addr) != dirty[addr] {
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
