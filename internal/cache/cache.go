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
// Each set keeps its ways in recency order, most recently used first,
// in one flat array indexed set*ways+way: an 8-way set is one 64-byte
// host cache line. An entry is (tag+1)<<1 | dirty, and 0 marks an
// invalid way. A hit moves its way to the front; a fill of a missing
// line shifts the set down by one and writes the line at the front, so
// the last way is the least recently used. Nothing invalidates a way,
// so invalid ways are always a suffix of their set: a lookup stops at
// the first one, and a fill takes it before it evicts the last way,
// which is the true-LRU policy of "the first invalid way, else the
// least recently used one".
type Cache struct {
	lines    []uint64
	ways     int
	setMask  uint64
	setBits  uint
	setShift uint
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
	return &Cache{
		lines:    make([]uint64, nsets*cfg.Ways),
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

// set returns the ways of addr's set and the entry its line would
// carry, clean.
func (c *Cache) set(addr uint64) (ways []uint64, key uint64) {
	line := addr >> c.setShift
	base := int(line&c.setMask) * c.ways
	return c.lines[base : base+c.ways], (line>>c.setBits + 1) << 1
}

// find returns the ways of addr's set and the index of its line there,
// or -1.
func (c *Cache) find(addr uint64) ([]uint64, int) {
	ways, key := c.set(addr)
	for i, e := range ways {
		if e&^1 == key {
			return ways, i
		}
		if e == 0 {
			break
		}
	}
	return ways, -1
}

// promote writes e at the front of ways, shifting ways[:i] down by one
// over ways[i].
func promote(ways []uint64, i int, e uint64) {
	for ; i > 0; i-- {
		ways[i] = ways[i-1]
	}
	ways[0] = e
}

// Contains reports whether the line holding addr is present. It does not
// update LRU state or statistics.
func (c *Cache) Contains(addr uint64) bool {
	_, i := c.find(addr)
	return i >= 0
}

// Access looks up the line holding addr, updating LRU state and hit/miss
// statistics. When write is true a hit marks the line dirty. It reports
// whether the access hit. A miss does NOT fill the cache; callers decide
// whether and how to fill (see Fill).
func (c *Cache) Access(addr uint64, write bool) bool {
	ways, i := c.find(addr)
	if i < 0 {
		c.stats.Misses++
		if c.observer != nil {
			c.observer(false)
		}
		return false
	}
	c.stats.Hits++
	e := ways[i]
	if write {
		e |= 1
	}
	promote(ways, i, e)
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
	ways, key := c.set(addr)
	if dirty {
		key |= 1
	}
	for i, e := range ways {
		switch {
		case e&^1 == key&^1:
			promote(ways, i, e|key)
			return Victim{}, false
		case e == 0:
			promote(ways, i, key)
			return Victim{}, false
		}
	}
	last := len(ways) - 1
	e := ways[last]
	set := addr >> c.setShift & c.setMask
	v = Victim{Addr: ((e>>1-1)<<c.setBits | set) << c.setShift, Dirty: e&1 != 0}
	c.stats.Evictions++
	if v.Dirty {
		c.stats.Writebacks++
	}
	promote(ways, last, key)
	return v, true
}

// Clean clears the dirty bit of the line holding addr, if present. It
// reports whether the line was present and dirty (i.e. whether the caller
// now owns a writeback).
func (c *Cache) Clean(addr uint64) bool {
	ways, i := c.find(addr)
	if i < 0 || ways[i]&1 == 0 {
		return false
	}
	ways[i] &^= 1
	return true
}
