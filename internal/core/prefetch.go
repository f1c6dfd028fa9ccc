package core

import (
	"supermem/internal/obs"
)

// prefetchConfidence is the number of consecutive identical strides a
// miss stream must show before the prefetcher trusts it (fixed; only
// the degree is a knob — config.PrefetchDegree).
const prefetchConfidence = 2

// prefetcher is a core's degree/confidence stride prefetcher. On a
// confident stride it issues up to degree non-binding prefetches down
// the stride: each prefetch reads the data line through the MSHR file
// and the memory controller's banks (so it competes for real
// bandwidth) and rides the matching counter line along — the
// counter+data prefetch that hides both the data fill and the OTP
// fetch of a future demand miss. Prefetched lines live in the MSHR
// file (its prefetch-buffer role, see mshr.go) until a demand access
// claims them; they never touch the caches. Prefetches are dropped,
// never queued, when the write queue is pressured or the MSHR file is
// full: a prefetcher must not push durable writes into stalls.
type prefetcher struct {
	s      *System
	c      *coreState
	degree int

	lastMiss   uint64
	stride     int64
	confidence int
	haveLast   bool
}

// noteMiss trains the stride detector with a demand data miss at cycle
// t and issues prefetches once the stride is confident.
func (p *prefetcher) noteMiss(t, line uint64) {
	if p.haveLast {
		stride := int64(line) - int64(p.lastMiss)
		if stride != 0 && stride == p.stride {
			if p.confidence < prefetchConfidence {
				p.confidence++
			}
		} else {
			p.stride = stride
			p.confidence = 1
		}
	}
	p.lastMiss = line
	p.haveLast = true
	if p.confidence < prefetchConfidence || p.stride == 0 {
		return
	}
	for k := 1; k <= p.degree; k++ {
		addr := int64(line) + int64(k)*p.stride
		if addr < 0 || uint64(addr) >= p.s.layout.DataBytes {
			return
		}
		if !p.issue(t, uint64(addr)) {
			return
		}
	}
}

// issue attempts one prefetch; false stops the degree loop (pressure
// and capacity conditions only get worse within the same miss).
func (p *prefetcher) issue(t, line uint64) bool {
	s, c := p.s, p.c
	if c.l1.Contains(line) || c.l2.Contains(line) || s.l3.Contains(line) {
		return true // already cached: not a drop, keep walking the stride
	}
	// Non-binding: under write-queue pressure the prefetch would steal
	// bank slots from durable writes, so drop it.
	if c.mc.PendingWaiters() > 0 || 4*c.mc.Len() >= 3*c.mc.Capacity() {
		c.m.PrefetchDropped++
		s.rec.Count(obs.SeriesPrefetchDropped, t, 1)
		return false
	}
	if _, issued := c.mem.tryPrefetch(t, line); !issued {
		c.m.PrefetchDropped++
		s.rec.Count(obs.SeriesPrefetchDropped, t, 1)
		return false
	}
	c.m.PrefetchIssued++
	s.rec.Count(obs.SeriesPrefetchIssued, t, 1)
	// Ride the counter line along so a later demand miss finds its OTP
	// material in flight too (counter+data prefetch). Best-effort: a
	// full file drops only the counter half.
	if s.encrypted {
		ctrAddr := s.layout.CounterLineAddr(line, s.placement)
		if !c.ctrCache.Contains(ctrAddr) {
			c.mem.tryPrefetch(t, ctrAddr)
		}
	}
	return true
}
