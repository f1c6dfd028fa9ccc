package machine

import (
	"supermem/internal/aes"
	"supermem/internal/config"
	"supermem/internal/ctr"
)

// padCache memoizes one-time pads by (line address, major, minor). A
// pad is a pure function of the key schedule and that triple (Figure 3:
// OTP = AES(key, address, counter)), so caching is exact: a hit returns
// byte-identical output to re-running the four AES blocks. The wins are
// the workload's natural re-reads (decrypting a line after persisting
// it uses the same counter) and RSR re-encryption storms, where all 64
// lines of a page take fresh pads under (major+1, minor 0) that the
// recovery path then reuses.
//
// The cache is direct-mapped over a power-of-two slot array with a
// deterministic hash — no randomized eviction, so byte-level runs stay
// reproducible. The array starts small and doubles whenever the misses
// so far outnumber its slots, up to padCacheSlots: most machines live
// for one crash run and compute a few hundred pads, and zeroing the
// full array cost them more than its hits saved.
//
// Since pads depend on no volatile machine state, the machines of one
// run share a cache: a successor inherits its predecessor's across
// Recover, and a fork (ForkAtPersists) its run's. The cache takes no
// lock, so the machines sharing one run on one goroutine at a time.
type padCache struct {
	cipher *aes.Cipher
	slots  []padSlot
	mask   uint64
	max    int // the slot count growth stops at
	hits   uint64
	misses uint64
}

type padKey struct {
	line  uint64
	major uint64
	minor uint8
}

type padSlot struct {
	key   padKey
	valid bool
	pad   ctr.Pad
}

// padCacheSlots is the size a default cache grows to: 4096 slots ×
// 96 B = 384 KiB — small next to the functional NVM maps, large enough
// that a page re-encryption (64 pads) plus the hot working set stays
// resident. padCacheStart is its initial size (24 KiB), which holds a
// reference run's pads.
const (
	padCacheSlots = 4096
	padCacheStart = 256
)

// newPadCache builds a cache of a fixed power-of-two slot count, or a
// growing default one when slots is 0.
func newPadCache(cipher *aes.Cipher, slots int) *padCache {
	start := slots
	if slots <= 0 {
		start, slots = padCacheStart, padCacheSlots
	}
	if slots&(slots-1) != 0 {
		panic("machine: pad cache size must be a power of two")
	}
	p := &padCache{cipher: cipher, max: slots}
	p.resize(start)
	return p
}

// resize rehashes the resident pads into a fresh array of n slots.
func (p *padCache) resize(n int) {
	old := p.slots
	p.slots, p.mask = make([]padSlot, n), uint64(n-1)
	for _, s := range old {
		if s.valid {
			*p.slot(s.key) = s
		}
	}
}

func (p *padCache) slot(k padKey) *padSlot {
	// Mix the three key fields with distinct odd constants
	// (splitmix64-style) so line-stride access patterns spread across
	// the table.
	h := k.line*0x9E3779B97F4A7C15 ^ k.major*0xBF58476D1CE4E5B9 ^ (uint64(k.minor)+1)*0x94D049BB133111EB
	h ^= h >> 29
	return &p.slots[h&p.mask]
}

// otp returns the pad for (lineAddr, major, minor), computing and
// caching it on a miss.
func (p *padCache) otp(lineAddr, major uint64, minor uint8) ctr.Pad {
	k := padKey{line: lineAddr, major: major, minor: minor}
	s := p.slot(k)
	if s.valid && s.key == k {
		p.hits++
		return s.pad
	}
	p.misses++
	if p.misses > uint64(len(p.slots)) && len(p.slots) < p.max {
		p.resize(2 * len(p.slots))
		s = p.slot(k)
	}
	s.key = k
	s.valid = true
	s.pad = ctr.OTP(p.cipher, lineAddr, major, minor)
	return s.pad
}

// precomputePage batch-fills the pads for every line of the page
// containing base under one counter window (major, minor) — the batched
// form a pipelined AES engine would run during RSR re-encryption, where
// all 64 lines take pads under (major+1, minor 0) back to back. Pads
// already resident are not recomputed. A re-encryption storm is the
// heavy use the full-size cache is for, so the cache grows to it first.
func (p *padCache) precomputePage(base, major uint64, minor uint8) {
	if len(p.slots) < p.max {
		p.resize(p.max)
	}
	start := base &^ (config.PageSize - 1)
	for i := uint64(0); i < config.LinesPerPage; i++ {
		p.otp(start+i*config.LineSize, major, minor)
	}
}

// PadCacheStats reports the machine's pad cache hits and misses
// (diagnostics and benchmarks).
func (m *Machine) PadCacheStats() (hits, misses uint64) {
	return m.pads.hits, m.pads.misses
}
