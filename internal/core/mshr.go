package core

import "supermem/internal/obs"

// A core's MSHR file. Because the memory controller computes a read's
// completion time synchronously (memctrl.ReadLine is pure arithmetic
// over bank busy windows), an MSHR entry is just the triple
// (line, done, prefetch): the fill is in flight while done > now. That
// keeps the whole miss path event-free and deterministic — occupancy,
// merges, and full-file stalls are arithmetic over simulated cycles,
// identical at any host parallelism.
//
// The file doubles as the prefetch buffer: a prefetched line is NOT
// installed into the caches (cache fills model demand traffic), it
// stays in its entry after the fill completes until a demand access
// claims it or the allocator evicts it. A demand access that finds its
// line here either merges with the in-flight fill (done > now) or hits
// the completed buffer entry (done <= now) — both score the prefetch
// useful and cost no NVM read.

// mshrEntry tracks one outstanding (or buffered prefetched) line fill.
type mshrEntry struct {
	line  uint64
	done  uint64
	valid bool
	// prefetch marks entries allocated by the stride prefetcher; they
	// survive completion as prefetch-buffer entries until demanded or
	// evicted.
	prefetch bool
}

// mshrFile is the core's demand-fill read path: readPath and
// counterForRead route their NVM line reads through it. The persist
// paths keep talking to the controller — persist-side counter fetches
// happen inside the ADR domain, not the load pipeline.
type mshrFile struct {
	s       *System
	c       *coreState
	entries []mshrEntry
}

// readLine is a demand fill of line at cycle t.
//
// Same-line merge: a request for a line already being filled returns
// the in-flight completion time without touching the controller — no
// second NVM read. Store misses take this path too (writeHit is a
// write-allocate read), which is the write-combining miss path: stores
// arriving while their line's fill is in flight cost zero extra reads.
//
// Full file: the request waits until the earliest outstanding fill
// frees its entry; the wait is charged to MSHRStallCycles (and shows up
// in the op's read stall, since the returned completion time includes
// it).
func (f *mshrFile) readLine(t, line uint64) uint64 {
	for i := range f.entries {
		e := &f.entries[i]
		if !e.valid || e.line != line {
			continue
		}
		if e.done > t {
			f.c.m.MSHRMerges++
			if e.prefetch {
				e.prefetch = false
				f.c.m.PrefetchUseful++
				f.s.rec.Count(obs.SeriesPrefetchUseful, t, 1)
			}
			return e.done
		}
		if e.prefetch {
			// Completed prefetch sitting in the buffer: the data is
			// already here, the demand access pays no memory time.
			e.valid = false
			f.c.m.PrefetchUseful++
			f.s.rec.Count(obs.SeriesPrefetchUseful, t, 1)
			return t
		}
		// A completed demand entry is stale (its fill is in the caches
		// or was evicted); fall through and re-read.
		break
	}
	slot, at := f.alloc(t)
	if at > t {
		f.c.m.MSHRFullStalls++
		f.c.m.MSHRStallCycles += at - t
	}
	done := f.c.mc.ReadLine(at, line)
	*slot = mshrEntry{line: line, done: done, valid: true}
	if f.s.rec != nil {
		f.s.rec.Gauge(obs.SeriesMSHROccupancy, at, float64(f.outstanding(at)))
	}
	if f.c.pf != nil && line < f.s.layout.CtrBase {
		// A real data miss: train the stride detector, which may issue
		// prefetches of its own (they come back through tryPrefetch, not
		// readLine, so training cannot recurse).
		f.c.pf.noteMiss(at, line)
	}
	return done
}

// tryPrefetch allocates an entry for a non-binding prefetch of line at
// cycle t. Prefetches never stall: a full file (all fills in flight)
// or an entry already holding the line reports failure and the
// candidate is dropped.
func (f *mshrFile) tryPrefetch(t, line uint64) (done uint64, ok bool) {
	for i := range f.entries {
		e := &f.entries[i]
		if e.valid && e.line == line && (e.done > t || e.prefetch) {
			return 0, false
		}
	}
	slot, at := f.alloc(t)
	if at > t {
		return 0, false
	}
	done = f.c.mc.ReadLine(t, line)
	*slot = mshrEntry{line: line, done: done, valid: true, prefetch: true}
	if f.s.rec != nil {
		f.s.rec.Gauge(obs.SeriesMSHROccupancy, t, float64(f.outstanding(t)))
	}
	return done, true
}

// alloc returns an entry to fill and the cycle it is usable: a plain
// free entry at t itself when one exists, else the oldest completed
// prefetch-buffer entry (evicted, still at t), else — every fill in
// flight — the entry with the earliest completion, usable at that
// completion (the deterministic full-file stall).
func (f *mshrFile) alloc(t uint64) (*mshrEntry, uint64) {
	var evict *mshrEntry
	best, bestDone := -1, uint64(0)
	for i := range f.entries {
		e := &f.entries[i]
		if !e.valid || (e.done <= t && !e.prefetch) {
			return e, t
		}
		if e.done <= t {
			// Completed prefetch: eviction candidate, oldest first.
			if evict == nil || e.done < evict.done {
				evict = e
			}
			continue
		}
		if best < 0 || e.done < bestDone {
			best, bestDone = i, e.done
		}
	}
	if evict != nil {
		return evict, t
	}
	return &f.entries[best], bestDone
}

// outstanding counts in-flight entries at cycle t.
func (f *mshrFile) outstanding(t uint64) (n int) {
	for i := range f.entries {
		if f.entries[i].valid && f.entries[i].done > t {
			n++
		}
	}
	return n
}
