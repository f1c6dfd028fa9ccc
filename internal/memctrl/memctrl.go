// Package memctrl models the NVM memory controller's write path: the
// ADR-protected write queue, lazy per-bank issue (an entry is sent to
// its bank only once the bank is free), read priority, and the paper's
// locality-aware counter write coalescing (CWC, Section 3.4.3).
//
// Because the write queue sits inside the ADR persistent domain, a cache
// line flush is durable the moment it is *accepted* into the queue; a
// core therefore stalls only while the queue is full. CWC exploits lazy
// issue: a newly accepted counter line supersedes any not-yet-issued
// counter entry with the same address, which is simply removed.
package memctrl

import (
	"fmt"
	"math"

	"supermem/internal/arena"
	"supermem/internal/nvm"
	"supermem/internal/obs"
	"supermem/internal/sim"
	"supermem/internal/stats"
)

// Entry is one write-queue element: a line write plus the one-bit flag
// distinguishing counter lines from CPU cache lines (Section 3.4.3).
type Entry struct {
	Addr    uint64
	Counter bool
}

// issueWindow is how many of the oldest un-issued entries the scheduler
// examines per pass.
const issueWindow = 8

// pend is one un-issued write-queue entry, held by value in the
// controller's arrival-ordered array until it issues.
type pend struct {
	addr    uint64
	spanID  uint64 // trace id for the admission..retirement async span
	bank    int32  // the bank that services it, fixed at admission
	counter bool
}

// queued is an issued entry: it holds what retire needs and is itself
// the retire event, so issuing a write allocates no event object.
type queued struct {
	c       *Controller
	bank    int
	counter bool
	spanID  uint64
}

// Fire implements sim.EventObj.
func (q *queued) Fire(now uint64) { q.c.retire(now, q) }

// retryEv is bank b's pre-allocated issue-retry event. All retry state
// (armed flag, time) lives in Controller.retries; the object exists
// only so scheduleRetry never allocates.
type retryEv struct {
	c    *Controller
	bank int
}

// Fire implements sim.EventObj.
func (r *retryEv) Fire(now uint64) {
	c := r.c
	if c.retries[r.bank].armed && c.retries[r.bank].at == now {
		c.retries[r.bank].armed = false
	}
	c.tryIssue(now)
}

// bankRetry tracks the already-scheduled issue retry for one bank. The
// armed flag is explicit: cycle 0 is a legitimate retry time (a bank
// whose BankFreeAt is 0 at simulation start), so the time alone cannot
// double as the "none scheduled" sentinel.
type bankRetry struct {
	at    uint64
	armed bool
}

// Acceptor receives the cycle at which a stalled or immediate enqueue
// was accepted into the ADR domain. It is an interface rather than a
// func so hot callers (internal/core's per-core op jobs) can pass one
// long-lived object instead of allocating a closure per flush.
type Acceptor interface {
	Accepted(now uint64)
}

// AcceptFunc adapts a plain function to Acceptor (func values are
// pointer-shaped, so the adaptation itself does not allocate).
type AcceptFunc func(now uint64)

// Accepted implements Acceptor.
func (f AcceptFunc) Accepted(now uint64) { f(now) }

type waiter struct {
	entries []Entry
	accept  Acceptor
}

// Controller is the memory controller write path.
//
// Writes drain lazily between a high and a low watermark, as real
// controllers do to keep banks available for reads: issuing starts when
// occupancy reaches hiWM (or a core is stalled) and stops once it falls
// to loWM. The laziness is what gives CWC its window — a counter line
// rewritten while its predecessor still sits un-issued simply replaces
// it (Section 3.4.3).
type Controller struct {
	eng      *sim.Engine
	dev      *nvm.Device
	layout   nvm.Layout // dev's address map, to find each entry's bank
	capacity int
	cwc      bool
	// queue holds the un-issued entries in arrival order; an entry
	// leaves it when it issues. issued counts the entries sent to
	// their banks whose retire has not fired: they still occupy queue
	// slots, so the occupancy is len(queue)+issued. queue is a view
	// into buf, twice the capacity, so a removal can shift whichever
	// side of the entry is shorter (see remove).
	queue    []pend
	buf      []pend
	issued   int
	waiters  []waiter
	m        *stats.Metrics
	draining bool
	forced   bool // end-of-run flush: drain everything regardless
	hiWM     int
	loWM     int
	// retries[b] is the already-scheduled issue retry for bank b, used
	// to avoid flooding the event queue when reads keep a bank busy.
	retries []bankRetry
	// pending[b] counts bank b's un-issued entries that the
	// beyond-window pass may issue (everything but CWC-lingering
	// counters), so that pass can tell in O(banks) whether scanning the
	// queue tail could issue anything.
	pending []int
	// idleAt is a lower bound on the cycle at which a bank below 64
	// with pending work next frees: before it the beyond-window pass
	// has nothing to issue. Bank free times only grow, so the bound
	// holds until an admit adds pending work to a bank that frees
	// sooner, which lowers it.
	idleAt uint64
	// inflight[b]/writeDone[b]: whether bank b's current reservation is
	// one of this controller's issued writes, and the cycle its retire
	// fires. A retry armed for that same cycle would be redundant —
	// retire re-runs tryIssue — so scheduleRetry elides it.
	inflight  []bool
	writeDone []uint64
	rec       *obs.Recorder
	nextID    uint64 // queue-entry span ids
	// entryPool recycles the queued retire events (retire returns
	// them) and retryEvs holds one pre-allocated retry event per bank,
	// so the steady-state enqueue/issue/retire cycle performs zero
	// allocations.
	entryPool arena.Pool[queued]
	retryEvs  []retryEv

	// Read-retry and bank-quarantine policy (Section "fault injection"
	// of EXPERIMENTS.md). retryLimit is total read attempts per line;
	// backoff is the base gap before the first retry, doubling per
	// attempt. failures[b] counts failed accesses of bank b; when it
	// reaches quarThresh (>0) the bank is quarantined and subsequent
	// traffic is remapped to the partner bank (b + N/2) mod N.
	retryLimit  int
	backoff     uint64
	quarThresh  int
	failures    []int
	quarantined []bool
	quarCount   int

	// Wear-leveling rotation (the write-count-triggered generalization
	// of the quarantine remap): after every wearPeriod issued write
	// services the rotation offset advances by one, and every access's
	// home bank is remapped to (home + wearRot) mod N before the
	// quarantine remap applies. Start-gap-style data migration traffic
	// is not modeled — the layer exists to spread a hammered bank's
	// wear (and queue pressure) across the array. wearPeriod == 0
	// disables rotation.
	wearPeriod uint64
	wearWrites uint64
	wearRot    int
}

// New builds a controller over the device. Capacity must be at least 2:
// a flush appends a data line and its counter line atomically, so a
// single-slot queue could never accept one.
func New(eng *sim.Engine, dev *nvm.Device, capacity int, cwc bool, m *stats.Metrics) (*Controller, error) {
	if capacity < 2 {
		return nil, fmt.Errorf("memctrl: write queue capacity %d < 2 cannot hold an atomic data+counter pair", capacity)
	}
	hi := capacity * 3 / 4
	if hi < 2 {
		hi = 2
	}
	lo := capacity / 8
	c := &Controller{
		eng:       eng,
		dev:       dev,
		layout:    dev.Layout(),
		capacity:  capacity,
		cwc:       cwc,
		m:         m,
		hiWM:      hi,
		loWM:      lo,
		retries:   make([]bankRetry, dev.Banks()),
		pending:   make([]int, dev.Banks()),
		inflight:  make([]bool, dev.Banks()),
		writeDone: make([]uint64, dev.Banks()),

		retryLimit:  1,
		failures:    make([]int, dev.Banks()),
		quarantined: make([]bool, dev.Banks()),
	}
	c.buf = make([]pend, 2*capacity)
	c.queue = c.buf[:0]
	c.retryEvs = make([]retryEv, dev.Banks())
	for b := range c.retryEvs {
		c.retryEvs[b] = retryEv{c: c, bank: b}
	}
	return c, nil
}

// SetResilience configures the read-retry and quarantine policy: limit
// total read attempts per line (>= 1), backoff base cycles between
// attempts (doubling per retry), and the failed-access count at which a
// bank is quarantined (0 disables quarantine).
func (c *Controller) SetResilience(limit int, backoff uint64, threshold int) {
	if limit < 1 {
		limit = 1
	}
	c.retryLimit = limit
	c.backoff = backoff
	c.quarThresh = threshold
}

// SetWearLeveling configures the wear-leveling rotation: the number of
// issued write services between rotation advances (0 disables).
func (c *Controller) SetWearLeveling(period uint64) { c.wearPeriod = period }

// SetRecorder attaches an observability recorder (nil disables).
func (c *Controller) SetRecorder(r *obs.Recorder) { c.rec = r }

// Len returns the current write queue occupancy: entries waiting to
// issue plus entries in flight to their banks.
func (c *Controller) Len() int { return len(c.queue) + c.issued }

// Capacity returns the configured queue capacity.
func (c *Controller) Capacity() int { return c.capacity }

// PendingWaiters returns the number of cores stalled on a full queue.
func (c *Controller) PendingWaiters() int { return len(c.waiters) }

// Enqueue appends entries to the write queue atomically: either all of
// them enter together or the caller waits. accept is invoked (possibly
// immediately, re-entrantly) with the cycle at which the entries were
// accepted — that is the durability point under ADR. Entries must hold
// one or two lines (a bare write, or a data+counter pair from the
// register of Figure 7).
// It returns an error — without enqueueing anything — for group sizes
// the register cannot produce (0 or more than 2 entries).
func (c *Controller) Enqueue(now uint64, entries []Entry, accept func(now uint64)) error {
	return c.EnqueueTo(now, entries, AcceptFunc(accept))
}

// EnqueueTo is Enqueue with an Acceptor instead of a callback — the
// allocation-free form the core's op jobs use. If the group stalls, the
// controller holds entries (without copying) until acceptance; callers
// reusing entry buffers must not mutate them before Accepted fires.
func (c *Controller) EnqueueTo(now uint64, entries []Entry, accept Acceptor) error {
	if len(entries) == 0 || len(entries) > 2 {
		return fmt.Errorf("memctrl: enqueue of %d entries; the register holds at most a data+counter pair", len(entries))
	}
	if len(c.waiters) == 0 {
		if v, ok := c.fits(entries); ok {
			c.admit(now, entries, v)
			accept.Accepted(now)
			return nil
		}
	}
	c.waiters = append(c.waiters, waiter{entries: entries, accept: accept})
	return nil
}

// victims holds, for each entry of a group, the queue index of the
// un-issued counter entry CWC removes when the entry is admitted, or -1.
type victims [2]int

// fits reports whether entries can be admitted now, accounting for the
// slots CWC would free, and returns each entry's CWC victim for admit.
func (c *Controller) fits(entries []Entry) (v victims, ok bool) {
	v = victims{-1, -1}
	free := c.capacity - c.Len()
	if c.cwc {
		for k, e := range entries {
			if e.Counter {
				if v[k] = c.findCoalescible(e.Addr); v[k] >= 0 {
					free++
				}
			}
		}
	}
	return v, free >= len(entries)
}

// findCoalescible returns the index of the un-issued counter entry with
// the given address, or -1. The counter flag check makes the scan cheap
// in hardware (only flagged entries are compared). The scan starts at
// the tail, because admit re-appends each coalesced counter line there,
// so hits sit near the back. The direction cannot change the answer:
// admit removes an address's un-issued counter entry before appending
// its successor, so at most one exists per address
// (TestCWCOneUnissuedCounterPerAddress).
func (c *Controller) findCoalescible(addr uint64) int {
	for i := len(c.queue) - 1; i >= 0; i-- {
		if c.queue[i].counter && c.queue[i].addr == addr {
			return i
		}
	}
	return -1
}

// entrySpan names a queue entry's trace span by its counter flag.
func entrySpan(counter bool) string {
	if counter {
		return "wq ctr"
	}
	return "wq data"
}

// admit inserts entries, applying CWC removal first. v is fits' victim
// lookup for the same entries.
func (c *Controller) admit(now uint64, entries []Entry, v victims) {
	for k, e := range entries {
		if c.cwc && e.Counter {
			i := v[k]
			if k > 0 && entries[0].Counter {
				// The group's first counter was removed and appended
				// since fits looked; only such a group needs a second
				// lookup.
				i = c.findCoalescible(e.Addr)
			}
			if i >= 0 {
				// Remove the superseded earlier counter write: the new
				// line contains strictly newer contents (Figure 12),
				// and removing the former rather than merging into it
				// delays the write so more coalescing can happen.
				victim := c.queue[i]
				c.remove(i)
				c.m.CoalescedWrites++
				if c.rec != nil {
					c.rec.Count(obs.SeriesCoalesced, now, 1)
					c.rec.AsyncEnd(obs.TrackQueue, entrySpan(true), victim.spanID, now)
					c.rec.InstantArg(obs.TrackQueue, "cwc remove", now, "addr", victim.addr)
				}
			}
		}
		home := c.layout.BankOf(e.Addr)
		b := c.wearBank(home)
		if b != home {
			c.m.WearRemappedWrites++
			c.rec.Count(obs.SeriesWearRemaps, now, 1)
		}
		p := pend{addr: e.Addr, bank: int32(c.effBank(now, b)), counter: e.Counter}
		if !(c.cwc && e.Counter) {
			c.pending[p.bank]++
			if p.bank < 64 {
				c.idleAt = min(c.idleAt, c.dev.BankFreeAt(int(p.bank)))
			}
		}
		if c.rec != nil {
			c.nextID++
			p.spanID = c.nextID
			c.rec.AsyncBegin(obs.TrackQueue, entrySpan(e.Counter), p.spanID, now)
			if e.Counter {
				c.rec.Count(obs.SeriesCtrEnqueues, now, 1)
			}
		}
		if len(c.queue) == cap(c.queue) {
			// The view reached the end of buf: slide it back to the
			// front. With at most capacity entries in a buffer of
			// twice that, this runs at most once per capacity appends.
			c.queue = c.buf[:copy(c.buf, c.queue)]
		}
		c.queue = append(c.queue, p)
	}
	c.rec.Gauge(obs.SeriesWQOccupancy, now, float64(c.Len()))
	if c.Len() > c.capacity {
		panic("memctrl: write queue over capacity")
	}
	c.tryIssue(now)
}

// tryIssue scans the queue in arrival order and sends every entry whose
// bank is idle to the device (FR-FCFS-style, no head-of-line blocking
// across banks), respecting the drain watermarks.
func (c *Controller) tryIssue(now uint64) {
	// Update drain state: start at the high watermark or whenever a
	// core is stalled on a full queue; stop at the low watermark.
	n := c.Len()
	if !c.draining && (n >= c.hiWM || len(c.waiters) > 0 || c.forced) {
		c.draining = true
	}
	if c.draining && n <= c.loWM && len(c.waiters) == 0 && !c.forced {
		c.draining = false
	}
	if !c.draining {
		return
	}
	// The scheduler examines only the oldest issueWindow un-issued
	// entries (FR-FCFS over a window, as real controllers do). A CWC
	// survivor re-inserted at the tail therefore keeps riding ahead of
	// the window while its line keeps being rewritten — the "delay the
	// counter cache line write for merging more writes" of
	// Section 3.4.3.
	//
	// Each bank is visited once per pass: after its first window entry
	// issues (the bank is then busy with it) or arms the bank's retry,
	// a later entry on the same bank could only repeat that retry, so
	// it is skipped. A bank past 63 has no bit in seen (the shift
	// yields 0) and is simply visited again, to the same no-op effect.
	// i walks the window; an issued entry leaves the queue and the next
	// one slides into its index.
	var seen uint64
	i := 0
	for k := min(issueWindow, len(c.queue)); k > 0; k-- {
		b := c.queue[i].bank
		bit := uint64(1) << uint(b)
		if seen&bit != 0 {
			i++
			continue
		}
		seen |= bit
		if !c.dev.BankFree(int(b), now) {
			c.scheduleRetry(int(b))
			i++
			continue
		}
		c.issue(now, i)
	}
	if i < len(c.queue) {
		// The window is exhausted with un-issued entries still behind
		// it: without looking further, a write to an idle bank sitting
		// just past the window would stall until a hot-bank retire
		// advances the window — banks are independent, so let it
		// through now. (Window entries on busy banks armed their
		// retries above, so the window itself advances at the earliest
		// BankFreeAt among them.)
		c.issueBeyondWindow(now, i)
	}
}

// issueBeyondWindow scans entries past the FR-FCFS window (starting at
// queue index from) and issues those whose banks are idle. Counter
// entries stay put under CWC — lingering un-issued is what lets later
// rewrites coalesce into them (Section 3.4.3).
func (c *Controller) issueBeyondWindow(now uint64, from int) {
	// Summarize "idle bank with issuable work pending" as a bitmask
	// first: the common case here is one hot bank backing up the whole
	// queue, and a per-entry device query (plus retry arming) on that
	// path showed up as ~20% of simulation CPU. With the mask the
	// common case returns in O(banks) without touching the queue.
	// Entries on busy banks are simply left for the window to reach —
	// the in-window pass has already armed the bank retries that
	// advance it, so no extra events are needed. (Banks beyond 64 never
	// set a bit and conservatively wait for the window.)
	if now < c.idleAt {
		return
	}
	var free uint64
	next := uint64(math.MaxUint64)
	for b, n := range c.pending[:min(len(c.pending), 64)] {
		if n == 0 {
			continue
		}
		if at := c.dev.BankFreeAt(b); at <= now {
			free |= 1 << uint(b)
		} else {
			next = min(next, at)
		}
	}
	for i := from; free != 0 && i < len(c.queue); {
		p := &c.queue[i]
		// A bank past 63 has no bit: the shift yields 0.
		if (c.cwc && p.counter) || free&(1<<uint(p.bank)) == 0 {
			i++
			continue
		}
		b := int(p.bank)
		free &^= 1 << uint(b)
		c.issue(now, i)
		if c.pending[b] > 0 {
			next = min(next, c.dev.BankFreeAt(b))
		}
	}
	// Every free bank found work here: the window pass leaves busy each
	// bank it visits, so a free bank's pending entries all lie beyond
	// the window. next is therefore the earliest a pending bank frees.
	c.idleAt = next
}

// remove deletes the un-issued entry at queue index i. Issues come
// mostly from the window at the front, so shifting the shorter side
// moves a few entries rather than the whole tail.
func (c *Controller) remove(i int) {
	q := c.queue
	if i < len(q)/2 {
		copy(q[1:i+1], q[:i])
		c.queue = q[1:]
		return
	}
	copy(q[i:], q[i+1:])
	c.queue = q[:len(q)-1]
}

// issue sends the un-issued entry at queue index i to its (idle) bank.
// The entry leaves the queue, and the entries behind it move up one
// index; a pooled queued stands in for it until its retire fires.
func (c *Controller) issue(now uint64, i int) {
	p := c.queue[i]
	c.remove(i)
	b := int(p.bank)
	if !(c.cwc && p.counter) {
		c.pending[b]--
	}
	done := c.dev.WriteLineAt(now, b)
	c.inflight[b] = true
	c.writeDone[b] = done
	if p.counter {
		c.m.CounterWrites++
	} else {
		c.m.DataWrites++
	}
	if c.wearPeriod > 0 {
		c.wearWrites++
		if c.wearWrites >= c.wearPeriod {
			c.wearWrites = 0
			c.wearRot++
			if c.wearRot == c.dev.Banks() {
				c.wearRot = 0
			}
			c.m.WearRotations++
			if c.rec != nil {
				c.rec.InstantArg(obs.TrackQueue, "wear rotate", now, "rot", uint64(c.wearRot))
			}
		}
	}
	q := c.entryPool.Get()
	*q = queued{c: c, bank: b, counter: p.counter, spanID: p.spanID}
	c.issued++
	c.eng.AtObj(done, q)
}

// scheduleRetry arms one issue retry at the moment the bank frees, if
// none is already armed for that time or earlier. Cycle 0 is a valid
// retry time, hence the explicit armed flag rather than a 0 sentinel.
func (c *Controller) scheduleRetry(bank int) {
	freeAt := c.dev.BankFreeAt(bank)
	if c.inflight[bank] && freeAt == c.writeDone[bank] {
		// The bank is busy with our own write; its retire event at
		// freeAt re-runs tryIssue, so an extra retry event would only
		// churn the heap.
		return
	}
	if c.retries[bank].armed && c.retries[bank].at <= freeAt {
		return
	}
	c.retries[bank] = bankRetry{at: freeAt, armed: true}
	c.eng.AtObj(freeAt, &c.retryEvs[bank])
}

// retire frees a completed entry's queue slot, admits waiters that now
// fit, and keeps the drain going.
func (c *Controller) retire(now uint64, q *queued) {
	if c.writeDone[q.bank] == now {
		c.inflight[q.bank] = false
	}
	c.issued--
	if c.rec != nil {
		c.rec.AsyncEnd(obs.TrackQueue, entrySpan(q.counter), q.spanID, now)
		c.rec.Gauge(obs.SeriesWQOccupancy, now, float64(c.Len()))
	}
	// q's retire event has fired and nothing else references it, so it
	// can be recycled.
	c.entryPool.Put(q)
	// Admit stalled flushes in arrival order while they fit. Consume by
	// index and compact afterwards instead of reslicing the front away:
	// walking the slice forward strands its capacity, which made every
	// enqueue→drain cycle reallocate the waiter array (an Accepted
	// callback can append the op's next group reentrantly, so the length
	// may grow mid-loop).
	n := 0
	for n < len(c.waiters) {
		v, ok := c.fits(c.waiters[n].entries)
		if !ok {
			break
		}
		w := c.waiters[n]
		n++
		c.admit(now, w.entries, v)
		w.accept.Accepted(now)
	}
	if n > 0 {
		rest := copy(c.waiters, c.waiters[n:])
		for i := rest; i < len(c.waiters); i++ {
			c.waiters[i] = waiter{} // drop refs so admitted groups can be GC'd
		}
		c.waiters = c.waiters[:rest]
	}
	c.tryIssue(now)
}

// ReadLine services a line read at the device with priority over queued
// (un-issued) writes: it reserves the bank immediately and pushes lazy
// write issue behind it. The returned time is when the line's data is
// available.
//
// A transiently failing access is retried in place with exponential
// backoff, up to the configured attempt limit; a read that exhausts the
// budget is counted as uncorrected and returns the last attempt's
// completion time. Bank failures feed the quarantine counter: once a
// bank crosses the threshold, this and all later accesses remap to its
// partner bank.
func (c *Controller) ReadLine(now, addr uint64) (done uint64) {
	c.m.NVMReads++
	bank := c.effBank(now, c.wearBank(c.layout.BankOf(addr)))
	at := now
	retries := uint64(0)
	for attempt := 1; ; attempt++ {
		var ok bool
		done, ok = c.dev.ReadLineAt(at, bank)
		if ok {
			break
		}
		c.noteFailure(done, bank)
		if attempt >= c.retryLimit {
			c.m.UncorrectedReads++
			c.rec.InstantArg(obs.TrackFault, "uncorrected read", done, "addr", addr)
			break
		}
		// Exponential backoff: the k-th retry starts backoff<<(k-1)
		// cycles after the failed attempt completes, capped at
		// backoff<<MaxBackoffShift. A quarantine triggered by this
		// failure redirects the retry itself.
		retries++
		at = done + c.retryGap(attempt)
		bank = c.effBank(at, bank)
	}
	if retries > 0 {
		c.m.ReadRetries += retries
		c.rec.Observe(obs.HistReadRetry, retries)
	}
	c.scheduleRetry(bank) // writes blocked behind this read resume at done
	return done
}

// MaxBackoffShift caps the read-retry exponential backoff doubling:
// the k-th retry waits backoff<<min(k-1, MaxBackoffShift) cycles after
// the failed attempt completes. The retry limit admits up to 64
// attempts, so without the cap a long quarantine fight shifts the base
// past 64 bits — the gap wraps to 0 and the "backoff" becomes a
// zero-gap retry storm; before wrapping it overshoots the whole run
// length. 10 bounds the gap at 1024x the base.
const MaxBackoffShift = 10

// retryGap returns the backoff gap before the attempt-th retry
// (attempt counts the failed attempts so far, >= 1).
func (c *Controller) retryGap(attempt int) uint64 {
	shift := uint(attempt - 1)
	if shift > MaxBackoffShift {
		shift = MaxBackoffShift
	}
	return c.backoff << shift
}

// noteFailure records one failed access of a bank and quarantines it at
// the threshold.
func (c *Controller) noteFailure(now uint64, bank int) {
	c.failures[bank]++
	if c.quarThresh > 0 && !c.quarantined[bank] && c.failures[bank] >= c.quarThresh {
		c.quarantined[bank] = true
		c.quarCount++
		c.m.QuarantinedBanks++
		if c.rec != nil {
			c.rec.InstantArg(obs.TrackFault, "quarantine bank", now, "bank", uint64(bank))
		}
	}
}

// wearBank applies the wear-leveling rotation to a home bank. It is
// the identity until the first write-count-triggered rotation advance.
func (c *Controller) wearBank(b int) int {
	if c.wearRot == 0 {
		return b
	}
	return (b + c.wearRot) % c.dev.Banks()
}

// effBank maps a home bank to the bank that actually services it:
// quarantined banks redirect to the partner (b + N/2) mod N — the XBank
// relation, so a data bank fails over onto its counter partner. If the
// partner is quarantined too (applying the relation twice returns the
// original bank), the home bank is kept: with both halves of a pair out
// there is nowhere coherent left to go.
func (c *Controller) effBank(now uint64, b int) int {
	if c.quarCount == 0 || !c.quarantined[b] {
		return b
	}
	p := (b + c.dev.Banks()/2) % c.dev.Banks()
	if c.quarantined[p] {
		return b
	}
	c.m.BankRemaps++
	c.rec.Count(obs.SeriesBankRemaps, now, 1)
	return p
}

// Drained reports whether the queue and waiters are empty (used by runs
// to let the tail of the write stream complete).
func (c *Controller) Drained() bool { return c.Len() == 0 && len(c.waiters) == 0 }

// Flush forces the controller to drain everything currently queued and
// anything enqueued afterwards — the end-of-run write-back of a
// simulation.
func (c *Controller) Flush(now uint64) {
	c.forced = true
	c.tryIssue(now)
}
