// Package cache implements a generic set-associative write-back cache
// with true-LRU replacement. internal/core uses it for the CPU cache
// levels (L1/L2/L3) and for the memory controller's counter cache; it
// tracks presence and dirtiness only — data contents live in the
// functional machine model, not here.
package cache

import (
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

// Cache is a set-associative LRU cache keyed by line address.
//
// Ways are stored as flat per-field arrays indexed set*ways+way, so a
// lookup reads one set's keys contiguously (an 8-way set is one 64-byte
// host cache line) and touches the LRU and dirty state only on a hit.
type Cache struct {
	// keys[i] is the way's tag+1; 0 marks an invalid way, so validity
	// costs no separate load.
	keys  []uint64
	used  []uint64 // LRU timestamp
	dirty []bool

	ways     int
	setMask  uint64
	setBits  uint
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
	n := nsets * cfg.Ways
	return &Cache{
		keys:     make([]uint64, n),
		used:     make([]uint64, n),
		dirty:    make([]bool, n),
		ways:     cfg.Ways,
		setMask:  uint64(nsets - 1),
		setBits:  uint(bits.TrailingZeros(uint(nsets))),
		setShift: uint(bits.TrailingZeros(config.LineSize)),
	}
}

// SetObserver installs a hook invoked with each Access outcome (nil
// disables).
func (c *Cache) SetObserver(fn func(hit bool)) { c.observer = fn }

// Stats returns a copy of the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// locate returns the first way index of addr's set and the key its
// line would carry.
func (c *Cache) locate(addr uint64) (base int, key uint64) {
	line := addr >> c.setShift
	return int(line&c.setMask) * c.ways, line>>c.setBits + 1
}

// find returns the way index holding addr's line, or -1.
func (c *Cache) find(addr uint64) int {
	base, key := c.locate(addr)
	for i, k := range c.keys[base : base+c.ways] {
		if k == key {
			return base + i
		}
	}
	return -1
}

// Contains reports whether the line holding addr is present. It does not
// update LRU state or statistics.
func (c *Cache) Contains(addr uint64) bool { return c.find(addr) >= 0 }

// Access looks up the line holding addr, updating LRU state and hit/miss
// statistics. When write is true a hit marks the line dirty. It reports
// whether the access hit. A miss does NOT fill the cache; callers decide
// whether and how to fill (see Fill).
func (c *Cache) Access(addr uint64, write bool) bool {
	i := c.find(addr)
	if i < 0 {
		c.stats.Misses++
		if c.observer != nil {
			c.observer(false)
		}
		return false
	}
	c.stats.Hits++
	c.tick++
	c.used[i] = c.tick
	if write {
		c.dirty[i] = true
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
//
// One pass over the set both looks the line up and picks the way to
// fill: the first invalid way, else the first least-recently-used one.
func (c *Cache) Fill(addr uint64, dirty bool) (v Victim, evicted bool) {
	base, key := c.locate(addr)
	free, lru := -1, base
	for i := base; i < base+c.ways; i++ {
		switch k := c.keys[i]; {
		case k == key:
			c.tick++
			c.used[i] = c.tick
			if dirty {
				c.dirty[i] = true
			}
			return Victim{}, false
		case k == 0:
			if free < 0 {
				free = i
			}
		case c.used[i] < c.used[lru]:
			lru = i
		}
	}
	w := free
	if w < 0 {
		w = lru
		evicted = true
		set := addr >> c.setShift & c.setMask
		v = Victim{Addr: ((c.keys[w]-1)<<c.setBits | set) << c.setShift, Dirty: c.dirty[w]}
		c.stats.Evictions++
		if v.Dirty {
			c.stats.Writebacks++
		}
	}
	c.tick++
	c.keys[w], c.used[w], c.dirty[w] = key, c.tick, dirty
	return v, evicted
}

// Clean clears the dirty bit of the line holding addr, if present. It
// reports whether the line was present and dirty (i.e. whether the caller
// now owns a writeback).
func (c *Cache) Clean(addr uint64) bool {
	i := c.find(addr)
	if i < 0 || !c.dirty[i] {
		return false
	}
	c.dirty[i] = false
	return true
}
