// Package cache implements a generic set-associative write-back cache
// with true-LRU replacement. It is used for the CPU cache levels
// (L1/L2/L3) and for the memory controller's counter cache; it tracks
// presence and dirtiness only — data contents live in the functional
// machine model, not here.
package cache

import (
	"fmt"
	"math/bits"

	"supermem/internal/config"
)

// Stats accumulates cache accesses.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64 // total victims displaced by fills
	Writebacks uint64 // dirty victims displaced by fills
}

// HitRate returns hits/(hits+misses), or 0 for an untouched cache.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

type way struct {
	tag   uint64
	valid bool
	dirty bool
	used  uint64 // LRU timestamp
}

// Cache is a set-associative LRU cache keyed by line address.
type Cache struct {
	name     string
	sets     [][]way
	setMask  uint64
	setShift uint
	tick     uint64
	stats    Stats
	// observer, if set, sees every Access outcome. The cache has no
	// notion of simulated time, so observability wiring (per-window
	// hit/miss series) lives in the caller's closure.
	observer func(hit bool)
}

// New builds a cache from a geometry configuration.
func New(name string, cfg config.CacheConfig) *Cache {
	if err := cfg.Validate(name); err != nil {
		panic(err)
	}
	nsets := cfg.Sets()
	sets := make([][]way, nsets)
	backing := make([]way, nsets*cfg.Ways)
	for i := range sets {
		sets[i], backing = backing[:cfg.Ways], backing[cfg.Ways:]
	}
	return &Cache{
		name:     name,
		sets:     sets,
		setMask:  uint64(nsets - 1),
		setShift: uint(bits.TrailingZeros(config.LineSize)),
	}
}

// Name returns the cache's name (for diagnostics).
func (c *Cache) Name() string { return c.name }

// SetObserver installs a hook invoked with each Access outcome (nil
// disables).
func (c *Cache) SetObserver(fn func(hit bool)) { c.observer = fn }

// Stats returns a copy of the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

func (c *Cache) index(addr uint64) (set uint64, tag uint64) {
	line := addr >> c.setShift
	return line & c.setMask, line >> uint(bits.TrailingZeros64(c.setMask+1))
}

func (c *Cache) find(addr uint64) *way {
	set, tag := c.index(addr)
	ws := c.sets[set]
	for i := range ws {
		if ws[i].valid && ws[i].tag == tag {
			return &ws[i]
		}
	}
	return nil
}

// Contains reports whether the line holding addr is present. It does not
// update LRU state or statistics.
func (c *Cache) Contains(addr uint64) bool { return c.find(addr) != nil }

// Dirty reports whether the line holding addr is present and dirty.
func (c *Cache) Dirty(addr uint64) bool {
	w := c.find(addr)
	return w != nil && w.dirty
}

// Access looks up the line holding addr, updating LRU state and hit/miss
// statistics. When write is true a hit marks the line dirty. It reports
// whether the access hit. A miss does NOT fill the cache; callers decide
// whether and how to fill (see Fill).
func (c *Cache) Access(addr uint64, write bool) bool {
	w := c.find(addr)
	if w == nil {
		c.stats.Misses++
		if c.observer != nil {
			c.observer(false)
		}
		return false
	}
	c.stats.Hits++
	c.tick++
	w.used = c.tick
	if write {
		w.dirty = true
	}
	if c.observer != nil {
		c.observer(true)
	}
	return true
}

// Victim describes a line displaced by Fill.
type Victim struct {
	Addr  uint64
	Dirty bool
}

// Fill inserts the line holding addr (marking it dirty if dirty is true).
// If the set is full the LRU way is displaced and returned. Filling a
// line that is already present just updates its dirty bit and LRU state.
func (c *Cache) Fill(addr uint64, dirty bool) (v Victim, evicted bool) {
	if w := c.find(addr); w != nil {
		c.tick++
		w.used = c.tick
		if dirty {
			w.dirty = true
		}
		return Victim{}, false
	}
	set, tag := c.index(addr)
	ws := c.sets[set]
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
	if victim.valid {
		evicted = true
		v = Victim{Addr: c.addrOf(set, victim.tag), Dirty: victim.dirty}
		c.stats.Evictions++
		if victim.dirty {
			c.stats.Writebacks++
		}
	}
	c.tick++
	*victim = way{tag: tag, valid: true, dirty: dirty, used: c.tick}
	return v, evicted
}

func (c *Cache) addrOf(set, tag uint64) uint64 {
	setBits := uint(bits.TrailingZeros64(c.setMask + 1))
	return ((tag << setBits) | set) << c.setShift
}

// Clean clears the dirty bit of the line holding addr, if present. It
// reports whether the line was present and dirty (i.e. whether the caller
// now owns a writeback).
func (c *Cache) Clean(addr uint64) bool {
	w := c.find(addr)
	if w == nil || !w.dirty {
		return false
	}
	w.dirty = false
	return true
}

// Invalidate removes the line holding addr, returning whether it was
// present and whether it was dirty.
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	w := c.find(addr)
	if w == nil {
		return false, false
	}
	present, dirty = true, w.dirty
	*w = way{}
	return present, dirty
}

// DirtyLines returns the addresses of all dirty lines, in no particular
// order. Used by the functional machine to discard volatile state on a
// crash and by write-back flush walks.
func (c *Cache) DirtyLines() []uint64 {
	var out []uint64
	for set := range c.sets {
		for i := range c.sets[set] {
			w := &c.sets[set][i]
			if w.valid && w.dirty {
				out = append(out, c.addrOf(uint64(set), w.tag))
			}
		}
	}
	return out
}

// Len returns the number of valid lines.
func (c *Cache) Len() int {
	n := 0
	for set := range c.sets {
		for i := range c.sets[set] {
			if c.sets[set][i].valid {
				n++
			}
		}
	}
	return n
}

// String summarises the cache for diagnostics.
func (c *Cache) String() string {
	return fmt.Sprintf("%s{sets=%d ways=%d hits=%d misses=%d}", c.name, len(c.sets), len(c.sets[0]), c.stats.Hits, c.stats.Misses)
}
