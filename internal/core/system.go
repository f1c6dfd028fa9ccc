// Package core wires the SuperMem secure memory system together: the CPU
// cache hierarchy, the counter cache with write-through or write-back
// policy, the AES engine latency, the atomic-append register (Figure 7),
// counter write coalescing, cross-bank counter placement, and RSR-backed
// page re-encryption — i.e. the paper's contribution plus the five
// comparison schemes of the evaluation (Unsec, WB, WT, WT+CWC,
// WT+XBank, SuperMem).
//
// The package is the timing model: it executes per-core operation
// streams (trace.Source) on a discrete-event engine and produces the
// metrics behind every figure in the paper. Byte-accurate encryption and
// crash behaviour live in internal/machine.
package core

import (
	"fmt"

	"supermem/internal/cache"
	"supermem/internal/config"
	"supermem/internal/ctr"
	"supermem/internal/fault"
	"supermem/internal/integrity"
	"supermem/internal/memctrl"
	"supermem/internal/nvm"
	"supermem/internal/obs"
	"supermem/internal/scheme"
	"supermem/internal/sim"
	"supermem/internal/stats"
	"supermem/internal/trace"
)

// System is one simulated machine instance.
type System struct {
	cfg    config.Config
	eng    *sim.Engine
	dev    *nvm.Device
	layout nvm.Layout
	// mcs holds the memory-controller write queues: one shared
	// controller by default, or one per core under
	// config.PerCoreWriteQueues. All controllers issue into the same
	// banked device — bank state (busy windows, quarantine) lives there.
	mcs []*memctrl.Controller
	l3  *cache.Cache

	// ctrCaches holds the counter cache(s): one shared cache by default,
	// or one per-core partition under config.CounterCachePartition.
	// ctrStore is the architectural counter state used to detect
	// minor-counter overflow (contents are modelled byte-exactly in
	// internal/machine, not here).
	ctrCaches []*cache.Cache
	ctrStore  *ctr.Store

	cores []*coreState
	m     stats.Metrics
	rec   *obs.Recorder

	placement config.Placement
	// The scheme's persist policy, read once here rather than from the
	// scheme registry on every access: encrypted schemes fetch a
	// counter per read and persist; write-through schemes persist it
	// with every data write, and selective-atomicity ones only with
	// flushes.
	encrypted, writeThrough, selectiveAtomicity bool
	// ctrInterval is the scheme's counter-persist interval: 1 persists
	// the counter with every write-through data write; > 1 (Osiris's
	// stop-loss) enqueues the counter only when the line's minor counter
	// is a multiple of the interval.
	ctrInterval int

	// Integrity-tree write traffic (BMT/Triad-NVM/Phoenix schemes):
	// treeNodes is how many tree-node writes ride with each counter
	// persist (0 = no tree), treeBase is where the synthetic tree-node
	// lines live (just past the counter region, so they land on real
	// banks), and treeWCB is the deterministic write-combining buffer
	// that models Streamlining-style coalescing of tree updates.
	treeNodes    int
	treeCoalesce bool
	treeBase     uint64
	treeWCB      [treeWCBSlots]uint64

	// Overflow-rate throttle (config.OverflowThrottlePeriod): a single
	// machine-wide token bucket charged by the minor-counter bumps that
	// wrap a line — the bumps that detonate a page re-encryption. One
	// token refills every throttlePeriod cycles up to throttleBurst, so
	// an attacker hammering primed counter lines degrades to one RSR
	// storm per period (deterministic backpressure on the writer
	// instead of an unbounded re-encryption storm), while workloads
	// that overflow rarely never notice. throttlePeriod == 0 disables.
	throttlePeriod uint64
	throttleBurst  int
	bucket         tokenBucket

	// Warmup exclusion: each core's trace.Reset zeroes its own metrics
	// block, and when every core has reset, the shared block is
	// snapshotted into warm and subtracted from the final metrics, so
	// setup/warmup traffic does not pollute the figures.
	resetsSeen int
	warm       stats.Metrics

	// runErr records an internal-invariant failure surfaced by a
	// component during the event loop (there is no error path out of an
	// engine callback); Run reports it after the loop drains.
	runErr error
}

type coreState struct {
	id      int
	l1, l2  *cache.Cache
	src     trace.Source
	inTx    bool
	txStart uint64
	done    bool
	m       stats.Metrics

	// mc and ctrCache are this core's write queue and counter cache —
	// the shared instances by default, or this core's own under the
	// per-core-write-queue / counter-cache-partition knobs.
	mc       *memctrl.Controller
	ctrCache *cache.Cache

	// model is this core's timing model; gb and mem are its hooks into
	// the shared execution paths: gb points at the group buffer of the
	// op currently being dispatched (one per in-flight slot), and mem is
	// the MSHR file every demand fill goes through.
	model *OoO
	gb    *groupBuilder
	mem   *mshrFile
	// pf, when non-nil, is the core's stride prefetcher; the MSHR file
	// trains it with demand data misses.
	pf *prefetcher
}

// NewSystem builds a system from the configuration.
func NewSystem(cfg config.Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &System{
		cfg:                cfg,
		eng:                &sim.Engine{},
		placement:          cfg.Placement(),
		encrypted:          cfg.Scheme.Encrypted(),
		writeThrough:       cfg.Scheme.WriteThrough(),
		selectiveAtomicity: cfg.Scheme.SelectiveAtomicity(),
		ctrInterval:        cfg.Scheme.CounterPersistInterval(),
	}
	s.dev = nvm.NewDevice(cfg)
	s.layout = s.dev.Layout()
	if cfg.Scheme.Integrity() != scheme.IntegrityNone {
		s.treeNodes = integrity.PersistedNodes(cfg.Scheme.TreePersist())
		s.treeCoalesce = cfg.Scheme.TreeCoalesce()
		s.treeBase = s.layout.TotalBytes
	}
	// One shared write queue by default; one per core (splitting the
	// shared capacity) when the per-core knob is on. All controllers
	// increment the same metrics block — the event loop is
	// single-threaded, and the figures report the merged totals.
	nmc, entries := 1, cfg.WriteQueueEntries
	if cfg.PerCoreWriteQueues && cfg.Cores > 1 {
		nmc = cfg.Cores
		if entries = cfg.WriteQueueEntries / cfg.Cores; entries < 2 {
			entries = 2 // room for an atomic data+counter pair
		}
	}
	for i := 0; i < nmc; i++ {
		mc, err := memctrl.New(s.eng, s.dev, entries, cfg.CWC(), &s.m)
		if err != nil {
			return nil, err
		}
		mc.SetResilience(cfg.ReadRetryLimit, cfg.ReadRetryBackoff, cfg.BankQuarantineThreshold)
		mc.SetWearLeveling(cfg.WearRemapPeriod)
		s.mcs = append(s.mcs, mc)
	}
	if cfg.OverflowThrottlePeriod > 0 {
		s.throttlePeriod = cfg.OverflowThrottlePeriod
		s.throttleBurst = cfg.OverflowThrottleBurst
		if s.throttleBurst < 1 {
			s.throttleBurst = 1
		}
		s.bucket = tokenBucket{tokens: s.throttleBurst}
	}
	s.l3 = cache.New("L3", cfg.L3)
	ncc, ccCfg := 1, cfg.CounterCache
	if cfg.CounterCachePartition && cfg.Cores > 1 {
		ncc = cfg.Cores
		ccCfg = partitionCtrCache(cfg.CounterCache, cfg.Cores)
	}
	for i := 0; i < ncc; i++ {
		name := "ctrcache"
		if ncc > 1 {
			name = fmt.Sprintf("ctrcache.%d", i)
		}
		s.ctrCaches = append(s.ctrCaches, cache.New(name, ccCfg))
	}
	s.ctrStore = ctr.NewStore()
	for i := 0; i < cfg.Cores; i++ {
		c := &coreState{
			id:       i,
			l1:       cache.New(fmt.Sprintf("L1.%d", i), cfg.L1),
			l2:       cache.New(fmt.Sprintf("L2.%d", i), cfg.L2),
			mc:       s.mcs[i%len(s.mcs)],
			ctrCache: s.ctrCaches[i%len(s.ctrCaches)],
		}
		c.model = newOoO(s, c)
		s.cores = append(s.cores, c)
	}
	return s, nil
}

// partitionCtrCache shrinks the shared counter-cache geometry to one
// per-core partition: capacity divided by cores, associativity capped by
// the partition size, and the set count rounded down to a power of two
// so the partition is a valid cache.
func partitionCtrCache(cc config.CacheConfig, cores int) config.CacheConfig {
	size := cc.SizeBytes / cores
	if size < config.LineSize {
		size = config.LineSize
	}
	if cc.Ways*config.LineSize > size {
		cc.Ways = size / config.LineSize
	}
	sets := size / (cc.Ways * config.LineSize)
	pow2 := 1
	for pow2*2 <= sets {
		pow2 *= 2
	}
	cc.SizeBytes = pow2 * cc.Ways * config.LineSize
	return cc
}

// SetRecorder attaches an observability recorder to the system and
// every component under it. Call before Run; nil (the default) keeps
// all instrumentation on the no-op path.
func (s *System) SetRecorder(r *obs.Recorder) {
	s.rec = r
	for _, mc := range s.mcs {
		mc.SetRecorder(r)
	}
	s.dev.SetRecorder(r)
	if r == nil {
		s.eng.SetObserver(nil)
		for _, cc := range s.ctrCaches {
			cc.SetObserver(nil)
		}
		return
	}
	s.eng.SetObserver(r.EngineEvent)
	for _, cc := range s.ctrCaches {
		cc.SetObserver(func(hit bool) {
			id := obs.SeriesCtrMisses
			if hit {
				id = obs.SeriesCtrHits
			}
			r.Count(id, s.eng.Now(), 1)
		})
	}
}

// SetBankFaults attaches a bank-fault schedule to the NVM device (nil
// disables). Call before Run; the memory controller's read-retry and
// quarantine policy (config.ReadRetryLimit and friends) then reacts to
// the injected failures and latency spikes.
func (s *System) SetBankFaults(f *fault.BankFaults) { s.dev.SetFaults(f) }

// Config returns the system's configuration.
func (s *System) Config() config.Config { return s.cfg }

// Layout returns the NVM address map.
func (s *System) Layout() nvm.Layout { return s.layout }

// BankStats returns the per-bank service counts and busy cycles
// accumulated over the whole run (including warmup) — the direct view
// of the SingleBank bottleneck and the XBank fix (Figure 8).
func (s *System) BankStats() []nvm.BankStats { return s.dev.Stats() }

// Run executes one op stream per core to completion (including draining
// the write queue) and returns the merged metrics. It can be called once
// per System.
func (s *System) Run(sources []trace.Source) (stats.Metrics, error) {
	if len(sources) != len(s.cores) {
		return stats.Metrics{}, fmt.Errorf("core: %d sources for %d cores", len(sources), len(s.cores))
	}
	for i, c := range s.cores {
		c.src = sources[i]
		c.model.start()
	}
	s.eng.Run()
	// Flush the write queues' lazy tails so every accepted write reaches
	// NVM and is counted.
	for s.runErr == nil && !s.drained() {
		now := s.eng.Now()
		for _, mc := range s.mcs {
			mc.Flush(now)
		}
		s.eng.Run()
	}
	if s.runErr != nil {
		return stats.Metrics{}, s.runErr
	}
	for _, c := range s.cores {
		if !c.done {
			return stats.Metrics{}, fmt.Errorf("core: core %d never finished (simulation deadlock)", c.id)
		}
	}
	s.rec.Finish(s.eng.Now())
	m := s.shared()
	m.Sub(s.warm)
	for _, c := range s.cores {
		m.Add(c.m)
	}
	return m, nil
}

// drained reports whether every write queue has fully retired.
func (s *System) drained() bool {
	for _, mc := range s.mcs {
		if !mc.Drained() {
			return false
		}
	}
	return true
}

// shared returns the machine-wide metrics block: the controller and
// system counters, the counter-cache statistics (summed over the shared
// cache or the per-core partitions), and the clock.
func (s *System) shared() stats.Metrics {
	m := s.m
	for _, cc := range s.ctrCaches {
		cs := cc.Stats()
		m.CtrCacheHits += cs.Hits
		m.CtrCacheMisses += cs.Misses
		m.CtrEvictions += cs.Writebacks
	}
	m.Cycles = s.eng.Now()
	return m
}

// noteTxEnd records a completed transaction's latency for core c (the
// model calls it from its trace.TxEnd handling).
func (s *System) noteTxEnd(c *coreState, now uint64) {
	if !c.inTx {
		return
	}
	c.m.Transactions++
	c.m.TxCycles += now - c.txStart
	s.rec.CoreObserve(c.id, obs.HistTxLatency, now-c.txStart)
	c.inTx = false
}

// noteReset records core c's trace.Reset (the model calls it from its
// trace.Reset handling): the core's own metrics block and histograms
// restart from zero, and when every core has reset, the shared block is
// snapshotted for warmup subtraction. Series and trace events keep the
// full timeline.
func (s *System) noteReset(c *coreState) {
	c.m = stats.Metrics{}
	s.rec.ResetCore(c.id)
	s.resetsSeen++
	if s.resetsSeen == len(s.cores) {
		s.warm = s.shared()
	}
}

// readPath performs a load of the line at addr, returning the
// core-visible latency; write-queue groups produced by evictions are
// appended to the core's group buffer. fillDirty makes the line enter
// L1 dirty (write-allocate for stores).
func (s *System) readPath(c *coreState, now, line uint64, fillDirty bool) (lat uint64) {
	lat = s.cfg.L1.LatencyCycles
	if c.l1.Access(line, fillDirty) {
		return lat
	}
	lat += s.cfg.L2.LatencyCycles
	if c.l2.Access(line, false) {
		s.fillUp(c, line, fillDirty)
		return lat
	}
	lat += s.cfg.L3.LatencyCycles
	if s.l3.Access(line, false) {
		s.fillUp(c, line, fillDirty)
		return lat
	}
	// Memory read: the data read and the OTP generation proceed in
	// parallel (Figure 2b); the load completes when both are done. The
	// read goes through the core's MSHR file.
	reqAt := now + lat
	dataDone := c.mem.readLine(reqAt, line)
	readyAt := dataDone
	if s.encrypted {
		ctrReady := s.counterForRead(c, reqAt, line)
		if otpReady := ctrReady + s.cfg.AESCycles; otpReady > readyAt {
			readyAt = otpReady
		}
	}
	c.m.ReadStallCycles += readyAt - reqAt
	s.rec.CoreObserve(c.id, obs.HistReadStall, readyAt-reqAt)
	// Fill the hierarchy: L3 then L2 then L1.
	if v, ev := s.l3.Fill(line, false); ev && v.Dirty {
		s.persistLine(c, readyAt, v.Addr)
	}
	s.fillUp(c, line, fillDirty)
	return readyAt - now
}

// fillUp installs the line into L2 and L1, cascading dirty victims
// downwards. A dirty L2 victim lands in L3; a dirty L3 victim must be
// persisted to NVM.
func (s *System) fillUp(c *coreState, line uint64, dirty bool) {
	if v, ev := c.l2.Fill(line, false); ev && v.Dirty {
		if v3, ev3 := s.l3.Fill(v.Addr, true); ev3 && v3.Dirty {
			s.persistLine(c, s.eng.Now(), v3.Addr)
		}
	}
	if v, ev := c.l1.Fill(line, dirty); ev && v.Dirty {
		if v2, ev2 := c.l2.Fill(v.Addr, true); ev2 && v2.Dirty {
			if v3, ev3 := s.l3.Fill(v2.Addr, true); ev3 && v3.Dirty {
				s.persistLine(c, s.eng.Now(), v3.Addr)
			}
		}
	}
}

// writeHit performs a store: a write-allocate load followed by marking
// the line dirty in L1.
func (s *System) writeHit(c *coreState, now, line uint64) uint64 {
	return s.readPath(c, now, line, true)
}

// flushPath implements clwb: if the line is dirty anywhere it is cleaned
// in place and written back to NVM through the secure write path.
func (s *System) flushPath(c *coreState, now, line uint64) (lat uint64) {
	lat = s.cfg.L1.LatencyCycles
	dirty := c.l1.Clean(line)
	dirty = c.l2.Clean(line) || dirty
	dirty = s.l3.Clean(line) || dirty
	if !dirty {
		return lat
	}
	return lat + s.persistLatency(c, now+lat, line)
}

// persistLine is the eviction-side persist path: it appends the write
// groups for a dirty line leaving the cache hierarchy. Counter fetch
// time is not charged to the core (writeback buffers hide it), but the
// counter read still consumes NVM bank bandwidth.
func (s *System) persistLine(c *coreState, t, line uint64) {
	s.securePersist(c, t, line, false)
}

// persistLatency is the flush-side persist path: the core waits for the
// counter lookup and encryption before the flush can be appended
// (Figure 7: Enc, Sto, App).
func (s *System) persistLatency(c *coreState, t, line uint64) uint64 {
	return s.securePersist(c, t, line, true)
}

// securePersist appends the NVM write(s) for one data line under the
// configured scheme to the core's group buffer. charge controls whether
// counter-fetch and AES latency are core-visible.
func (s *System) securePersist(c *coreState, t, line uint64, charge bool) (lat uint64) {
	if !s.encrypted {
		c.gb.add1(memctrl.Entry{Addr: line})
		return 0
	}
	// Write-through schemes persist the counter with every data write;
	// the SCA extension does so only on the flush path (charge=true is
	// the flush path), leaving eviction counters dirty in the cache.
	writeThrough := s.writeThrough || (s.selectiveAtomicity && charge)
	ctrAddr := s.layout.CounterLineAddr(line, s.placement)

	// Locate the counter line; fetch it from NVM on a miss.
	if c.ctrCache.Access(ctrAddr, !writeThrough) {
		lat = s.cfg.CounterCache.LatencyCycles
	} else {
		done := c.mc.ReadLine(t, ctrAddr)
		lat = done - t
		s.fillCtr(c, ctrAddr, !writeThrough)
	}

	// Advance the minor counter; overflow forces page re-encryption.
	// With the overflow throttle on, a bump that would wrap the line's
	// minor counter first pays the global token bucket: an empty bucket
	// stalls the writer until the next refill, bounding the
	// machine-wide re-encryption rate.
	page := s.layout.PageOf(line)
	cl := s.ctrStore.Get(page)
	if cl.Minors[ctr.LineIndex(line)] == ctr.MinorMax {
		if stall := s.throttleOverflow(t + lat); stall > 0 {
			s.m.ThrottleStalls++
			s.m.ThrottleStallCycles += stall
			s.rec.Count(obs.SeriesThrottleStalls, t+lat, 1)
			lat += stall
		}
	}
	if cl.Bump(ctr.LineIndex(line)) {
		relat := s.reencryptPage(c, t+lat, page)
		if charge {
			lat += relat
		}
		return lat
	}

	lat += s.cfg.AESCycles // encrypt the line with the fresh OTP
	if !charge {
		lat = 0
	}
	if writeThrough {
		if s.ctrInterval > 1 && int(cl.Minors[ctr.LineIndex(line)])%s.ctrInterval != 0 {
			// Relaxed counter persistence (Osiris's stop-loss): the
			// counter write is deferred until the minor counter reaches
			// the next interval boundary; only the data line enqueues.
			s.m.DeferredCtrWrites++
			s.rec.Count(obs.SeriesCtrDeferred, t, 1)
			c.gb.add1(memctrl.Entry{Addr: line})
		} else {
			// The register (Figure 7) appends the encrypted data line and
			// its counter line atomically.
			c.gb.add2(memctrl.Entry{Addr: line}, memctrl.Entry{Addr: ctrAddr, Counter: true})
			s.persistTreeNodes(c, t, page)
		}
	} else {
		// Write-back: the counter stays dirty in the counter cache and
		// reaches NVM only on eviction.
		c.gb.add1(memctrl.Entry{Addr: line})
	}
	return lat
}

// tokenBucket is the overflow-throttle state: tokens in hand plus the
// cycle the next token is minted (meaningful while the bucket is not
// full; reset when a consume empties a full bucket).
type tokenBucket struct {
	tokens   int
	nextMint uint64
}

// throttleOverflow charges one overflow token at cycle t and returns
// the deterministic backpressure stall (0 when a token was in hand or
// throttling is off). The mint clock is pure arithmetic over simulated
// cycles, so the stall sequence is identical at any host parallelism.
func (s *System) throttleOverflow(t uint64) (stall uint64) {
	if s.throttlePeriod == 0 {
		return 0
	}
	b := &s.bucket
	for b.tokens < s.throttleBurst && b.nextMint <= t {
		b.tokens++
		b.nextMint += s.throttlePeriod
	}
	if b.tokens > 0 {
		if b.tokens == s.throttleBurst {
			// A full bucket's mint clock is stale; restart it now that
			// minting resumes.
			b.nextMint = t + s.throttlePeriod
		}
		b.tokens--
		return 0
	}
	// Empty: stall until the next token mints, then consume it.
	stall = b.nextMint - t
	b.nextMint += s.throttlePeriod
	return stall
}

// treeWCBSlots sizes the tree write-combining buffer; it mirrors the
// byte-accurate model's buffer (integrity.Tree) so both count the same
// coalescing opportunities.
const treeWCBSlots = 16

// persistTreeNodes appends the integrity-tree node writes that ride
// with one counter persist: the leaf always, plus the interior path
// under full tree persistence (Triad-NVM's leaves-only relaxation
// skips it). Node writes are issued as separate single-entry groups —
// the ADR register (Figure 7) holds the data+counter pair, and the
// tree updates stream behind it (Streamlining) — at synthetic line
// addresses just past the counter region, so they contend for real
// banks. With coalescing on, a node still pending in the combining
// buffer is absorbed instead of re-enqueued.
func (s *System) persistTreeNodes(c *coreState, t, page uint64) {
	if s.treeNodes == 0 {
		return
	}
	leaf := page & (integrity.LeafCount - 1)
	for lv := 0; lv < s.treeNodes; lv++ {
		idx := leaf >> (3 * lv)
		addr := s.treeBase + integrity.NodeOrdinal(lv, idx)*config.LineSize
		if s.treeCoalesce {
			slot := &s.treeWCB[(uint64(lv)*0x9E3779B97F4A7C15+idx)%treeWCBSlots]
			if *slot == addr {
				s.m.TreeCoalescedWrites++
				continue
			}
			*slot = addr
		}
		s.m.TreeNodeWrites++
		s.rec.Count(obs.SeriesTreeWrites, t, 1)
		c.gb.add1(memctrl.Entry{Addr: addr, Counter: true})
	}
}

// counterForRead makes the counter of a data line available for OTP
// generation, returning when it is ready (eviction writes are appended
// to the core's group buffer).
func (s *System) counterForRead(c *coreState, t, line uint64) (readyAt uint64) {
	ctrAddr := s.layout.CounterLineAddr(line, s.placement)
	if c.ctrCache.Access(ctrAddr, false) {
		return t + s.cfg.CounterCache.LatencyCycles
	}
	done := c.mem.readLine(t, ctrAddr)
	s.fillCtr(c, ctrAddr, false)
	return done
}

// fillCtr installs a counter line in the counter cache; a displaced
// dirty counter line (write-back schemes only) must be written to NVM.
func (s *System) fillCtr(c *coreState, ctrAddr uint64, dirty bool) {
	if v, ev := c.ctrCache.Fill(ctrAddr, dirty); ev && v.Dirty {
		c.gb.add1(memctrl.Entry{Addr: v.Addr, Counter: true})
	}
}

// reencryptPage models Section 3.4.4: every line of the page is read
// into the cache hierarchy, re-encrypted under the incremented major
// counter, and written back, tracked by the ADR-protected RSR. The
// counter store has already been reset by Bump; the write groups are
// data+counter pairs so CWC collapses the 64 counter writes.
func (s *System) reencryptPage(c *coreState, t uint64, page uint64) (lat uint64) {
	s.m.Reencryptions++
	base := page * config.PageSize
	ctrAddr := s.layout.CounterLineAddr(base, s.placement)
	readsDone := t
	for i := uint64(0); i < config.LinesPerPage; i++ {
		line := base + i*config.LineSize
		if !c.l1.Contains(line) && !c.l2.Contains(line) && !s.l3.Contains(line) {
			if done := c.mc.ReadLine(t, line); done > readsDone {
				readsDone = done
			}
		}
		c.gb.add2(memctrl.Entry{Addr: line}, memctrl.Entry{Addr: ctrAddr, Counter: true})
		s.persistTreeNodes(c, t, page)
	}
	s.m.ReencryptLines += config.LinesPerPage
	// The AES pipeline re-encrypts the 64 lines back to back once the
	// last read returns.
	lat = (readsDone - t) + s.cfg.AESCycles + config.LinesPerPage
	s.rec.SpanArg(obs.TrackRSR, "re-encrypt page", t, t+lat, "page", page)
	return lat
}
