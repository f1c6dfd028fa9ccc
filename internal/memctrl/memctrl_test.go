package memctrl

import (
	"math/rand"
	"testing"

	"supermem/internal/config"
	"supermem/internal/fault"
	"supermem/internal/nvm"
	"supermem/internal/sim"
	"supermem/internal/stats"
)

type rig struct {
	eng *sim.Engine
	dev *nvm.Device
	m   *stats.Metrics
	c   *Controller
	l   nvm.Layout
}

func newRig(t testing.TB, capacity int, cwc bool) *rig {
	t.Helper()
	cfg := config.Default()
	cfg.MemBytes = 1 << 20
	eng := &sim.Engine{}
	dev := nvm.NewDevice(cfg)
	m := &stats.Metrics{}
	c, err := New(eng, dev, capacity, cwc, m)
	if err != nil {
		t.Fatalf("New(capacity=%d): %v", capacity, err)
	}
	return &rig{eng: eng, dev: dev, m: m, c: c, l: dev.Layout()}
}

// enq enqueues; the returned pointers observe the acceptance time and
// flag once the engine fires the callback.
func (r *rig) enq(now uint64, entries ...Entry) (acceptedAt *uint64, accepted *bool) {
	at := new(uint64)
	done := false
	r.c.Enqueue(now, entries, func(n uint64) { *at = n; done = true })
	return at, &done
}

func (r *rig) data(bank int, line uint64) Entry {
	return Entry{Addr: r.l.BankBase(bank) + line*config.LineSize}
}

func (r *rig) ctr(bank int, line uint64) Entry {
	return Entry{Addr: r.l.BankBase(bank) + line*config.LineSize, Counter: true}
}

func TestImmediateAccept(t *testing.T) {
	r := newRig(t, 4, false)
	at, ok := r.enq(10, r.data(0, 0))
	if !*ok || *at != 10 {
		t.Fatalf("accept = %v at %d, want immediate at 10", *ok, *at)
	}
	// Below the high watermark the write is held lazily.
	r.eng.Run()
	if r.m.DataWrites != 0 {
		t.Fatalf("lazily held write issued: DataWrites = %d", r.m.DataWrites)
	}
	r.c.Flush(r.eng.Now())
	r.eng.Run()
	if r.m.DataWrites != 1 {
		t.Fatalf("DataWrites = %d after flush, want 1", r.m.DataWrites)
	}
	if !r.c.Drained() {
		t.Fatal("queue not drained after flush")
	}
}

func TestPairIsAtomic(t *testing.T) {
	r := newRig(t, 4, false)
	_, ok := r.enq(0, r.data(0, 0), r.ctr(4, 0))
	if !*ok {
		t.Fatal("pair not accepted into empty queue")
	}
	if r.c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.c.Len())
	}
	r.c.Flush(0)
	r.eng.Run()
	if r.m.DataWrites != 1 || r.m.CounterWrites != 1 {
		t.Fatalf("writes = %d/%d, want 1/1", r.m.DataWrites, r.m.CounterWrites)
	}
}

func TestFullQueueStallsUntilRetire(t *testing.T) {
	cfg := config.Default()
	r := newRig(t, 2, false)
	// Two writes to the same bank fill the queue; the first issues
	// immediately and retires at WriteCycles, the second at 2*WriteCycles.
	r.enq(0, r.data(0, 0))
	r.enq(0, r.data(0, 1))
	at, ok := r.enq(0, r.data(0, 2))
	if *ok {
		t.Fatal("third write accepted into a full 2-entry queue")
	}
	r.eng.Run()
	if !*ok {
		t.Fatal("stalled write never accepted")
	}
	if *at != cfg.WriteCycles {
		t.Fatalf("stalled write accepted at %d, want %d (first retire)", *at, cfg.WriteCycles)
	}
}

func TestWaitersAcceptedInFIFOOrder(t *testing.T) {
	r := newRig(t, 2, false)
	r.enq(0, r.data(0, 0))
	r.enq(0, r.data(0, 1))
	at1, ok1 := r.enq(0, r.data(0, 2))
	at2, ok2 := r.enq(0, r.data(0, 3))
	if r.c.PendingWaiters() != 2 {
		t.Fatalf("PendingWaiters = %d, want 2", r.c.PendingWaiters())
	}
	r.eng.Run()
	if !*ok1 || !*ok2 {
		t.Fatal("waiters never accepted")
	}
	if *at1 > *at2 {
		t.Fatalf("waiter order violated: %d then %d", *at1, *at2)
	}
}

func TestBankParallelDrain(t *testing.T) {
	cfg := config.Default()
	r := newRig(t, 8, false)
	for b := 0; b < 8; b++ {
		r.enq(0, r.data(b, 0))
	}
	r.c.Flush(0)
	r.eng.Run()
	if r.eng.Now() != cfg.WriteCycles {
		t.Fatalf("8 writes to 8 banks finished at %d, want %d (parallel)", r.eng.Now(), cfg.WriteCycles)
	}
}

func TestSingleBankSerialDrain(t *testing.T) {
	cfg := config.Default()
	r := newRig(t, 8, false)
	for i := uint64(0); i < 4; i++ {
		r.enq(0, r.data(7, i))
	}
	r.c.Flush(0)
	r.eng.Run()
	if r.eng.Now() != 4*cfg.WriteCycles {
		t.Fatalf("4 same-bank writes finished at %d, want %d (serial)", r.eng.Now(), 4*cfg.WriteCycles)
	}
}

func TestCWCRemovesSupersededCounter(t *testing.T) {
	r := newRig(t, 32, true)
	ctrAddr := r.ctr(7, 0)
	// Saturate bank 7 with a data write so the counter entries stay
	// un-issued and coalescible.
	r.enq(0, r.data(7, 99))
	r.enq(0, ctrAddr)
	r.enq(0, ctrAddr)
	r.enq(0, ctrAddr)
	r.enq(0, ctrAddr)
	r.c.Flush(0)
	r.eng.Run()
	if r.m.CoalescedWrites != 3 {
		t.Fatalf("CoalescedWrites = %d, want 3", r.m.CoalescedWrites)
	}
	if r.m.CounterWrites != 1 {
		t.Fatalf("CounterWrites = %d, want 1 (one survivor)", r.m.CounterWrites)
	}
}

// TestCWCTwoCounterGroup admits a group of two counter lines: each
// supersedes its un-issued predecessor as the queue stands when that
// entry is admitted, after the first entry's removal and append.
func TestCWCTwoCounterGroup(t *testing.T) {
	r := newRig(t, 32, true)
	x, y := r.ctr(1, 0), r.ctr(2, 0)
	r.enq(0, x)
	r.enq(0, y)
	r.enq(0, x, y)
	r.c.Flush(0)
	r.eng.Run()
	if r.m.CoalescedWrites != 2 || r.m.CounterWrites != 2 {
		t.Fatalf("coalesced %d, counter writes %d; want 2 and 2", r.m.CoalescedWrites, r.m.CounterWrites)
	}
	for _, b := range []int{1, 2} {
		if w := r.dev.Stats()[b].Writes; w != 1 {
			t.Errorf("bank %d took %d writes, want 1: one survivor per line", b, w)
		}
	}
}

// TestCWCOneUnissuedCounterPerAddress drives random enqueue, issue and
// retire sequences under CWC and checks, after every step, that no
// counter address has two un-issued entries. findCoalescible scans from
// the tail on the strength of it: with one entry per address, the first
// match from either end is the same index.
func TestCWCOneUnissuedCounterPerAddress(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := newRig(t, 2+rng.Intn(31), true)
		entry := func() Entry {
			bank, line := rng.Intn(4), uint64(rng.Intn(3))
			if rng.Intn(2) == 0 {
				return r.ctr(bank, line)
			}
			return r.data(bank, line)
		}
		now := uint64(0)
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(10); {
			case op < 6:
				group := []Entry{entry()}
				if rng.Intn(2) == 0 {
					group = append(group, entry())
				}
				r.c.Enqueue(now, group, func(uint64) {})
			case op < 9:
				// Let time pass: banks free, queued entries issue and
				// retire, and stalled groups are admitted.
				now += uint64(rng.Intn(400))
				r.eng.RunUntil(now)
			default:
				r.c.Flush(now)
			}
			seen := map[uint64]int{}
			for i, p := range r.c.queue {
				if !p.counter {
					continue
				}
				if j, dup := seen[p.addr]; dup {
					t.Fatalf("seed %d step %d: counter %#x un-issued at queue indices %d and %d", seed, step, p.addr, j, i)
				}
				seen[p.addr] = i
				if got := r.c.findCoalescible(p.addr); got != i {
					t.Fatalf("seed %d step %d: findCoalescible(%#x) = %d, want %d", seed, step, p.addr, got, i)
				}
			}
		}
		r.c.Flush(now)
		r.eng.Run()
		if !r.c.Drained() {
			t.Fatalf("seed %d: queue not drained", seed)
		}
	}
}

func TestCWCDoesNotCoalesceIssuedEntries(t *testing.T) {
	r := newRig(t, 32, true)
	ctrAddr := r.ctr(7, 0)
	r.enq(0, ctrAddr)
	r.c.Flush(0)      // forces the drain: the counter issues to bank 7
	r.enq(0, ctrAddr) // first is in flight; cannot be removed
	r.eng.Run()
	if r.m.CounterWrites != 2 {
		t.Fatalf("CounterWrites = %d, want 2 (in-flight entry must persist)", r.m.CounterWrites)
	}
	if r.m.CoalescedWrites != 0 {
		t.Fatalf("CoalescedWrites = %d, want 0", r.m.CoalescedWrites)
	}
}

func TestCWCDoesNotCoalesceDataWrites(t *testing.T) {
	r := newRig(t, 32, true)
	r.enq(0, r.data(7, 50)) // keeps bank busy
	r.enq(0, r.data(7, 1))
	r.enq(0, r.data(7, 1)) // same data address: not coalesced
	r.c.Flush(0)
	r.eng.Run()
	if r.m.DataWrites != 3 {
		t.Fatalf("DataWrites = %d, want 3 (data writes never coalesce)", r.m.DataWrites)
	}
}

func TestCWCDoesNotCrossCounterAddresses(t *testing.T) {
	r := newRig(t, 32, true)
	r.enq(0, r.data(7, 50))
	r.enq(0, r.ctr(7, 1))
	r.enq(0, r.ctr(7, 2)) // different counter line
	r.c.Flush(0)
	r.eng.Run()
	if r.m.CoalescedWrites != 0 {
		t.Fatal("coalesced counters with different addresses")
	}
	if r.m.CounterWrites != 2 {
		t.Fatalf("CounterWrites = %d, want 2", r.m.CounterWrites)
	}
}

func TestCWCFreesSlotForWaiter(t *testing.T) {
	// With CWC, a full queue whose tail holds a coalescible counter
	// accepts a new counter write for the same line immediately.
	r := newRig(t, 2, true)
	r.enq(0, r.data(7, 50)) // hits the 2-entry queue's watermark: issues
	r.enq(0, r.ctr(7, 1))   // queued, un-issued (bank 7 busy)
	// Queue is full (2 entries), but the counter below coalesces.
	at, ok := r.enq(0, r.ctr(7, 1))
	if !*ok || *at != 0 {
		t.Fatalf("coalescible enqueue into full queue: ok=%v at=%d, want immediate", *ok, *at)
	}
	r.eng.Run()
	if r.m.CoalescedWrites != 1 {
		t.Fatalf("CoalescedWrites = %d, want 1", r.m.CoalescedWrites)
	}
}

func TestReadsBypassLazilyHeldWrites(t *testing.T) {
	// Below the watermark, writes are not issued, so a read finds the
	// bank idle — the whole point of lazy write drain.
	cfg := config.Default()
	r := newRig(t, 8, false)
	r.enq(0, r.data(0, 0))
	done := r.c.ReadLine(10, r.l.BankBase(0)+5*config.LineSize)
	if done != 10+cfg.ReadCycles {
		t.Fatalf("read done at %d, want %d (bank should be idle)", done, 10+cfg.ReadCycles)
	}
	r.c.Flush(r.eng.Now())
	r.eng.Run()
	if r.m.NVMReads != 1 || r.m.DataWrites != 1 {
		t.Fatalf("reads/writes = %d/%d, want 1/1", r.m.NVMReads, r.m.DataWrites)
	}
}

func TestReadsHavePriorityOverQueuedWrites(t *testing.T) {
	cfg := config.Default()
	r := newRig(t, 8, false)
	// Force the drain with one in-flight write and one queued write on
	// bank 0.
	r.enq(0, r.data(0, 0))
	r.enq(0, r.data(0, 1))
	r.c.Flush(0)
	// Read arrives while the first write is in flight: it reserves the
	// bank right behind the in-flight write, ahead of the queued one.
	done := r.c.ReadLine(10, r.l.BankBase(0)+5*config.LineSize)
	if done != cfg.WriteCycles+cfg.ReadCycles {
		t.Fatalf("read done at %d, want %d", done, cfg.WriteCycles+cfg.ReadCycles)
	}
	r.eng.Run()
	// The queued write resumed after the read.
	if r.eng.Now() != cfg.WriteCycles+cfg.ReadCycles+cfg.WriteCycles {
		t.Fatalf("drain finished at %d, want %d", r.eng.Now(), cfg.WriteCycles+cfg.ReadCycles+cfg.WriteCycles)
	}
	if r.m.NVMReads != 1 {
		t.Fatalf("NVMReads = %d, want 1", r.m.NVMReads)
	}
}

func TestWatermarkStartsAndStopsDrain(t *testing.T) {
	// Capacity 16: hiWM 12, loWM 2. All writes target one bank so the
	// drain proceeds one entry at a time and the stop point is visible.
	r := newRig(t, 16, false)
	for i := uint64(0); i < 11; i++ {
		r.enq(0, r.data(0, i))
	}
	r.eng.Run()
	if r.m.DataWrites != 0 {
		t.Fatalf("drain started below the high watermark: %d writes", r.m.DataWrites)
	}
	r.enq(0, r.data(0, 99)) // 12th entry: hits hiWM
	r.eng.Run()
	if r.m.DataWrites == 0 {
		t.Fatal("drain never started at the high watermark")
	}
	// Drain stops at the low watermark, not zero.
	if r.c.Len() != 2 {
		t.Fatalf("drain stopped at occupancy %d, want the low watermark 2", r.c.Len())
	}
	// Flush finishes the job.
	r.c.Flush(r.eng.Now())
	r.eng.Run()
	if !r.c.Drained() || r.m.DataWrites != 12 {
		t.Fatalf("flush left %d entries, %d writes", r.c.Len(), r.m.DataWrites)
	}
}

// Regression test: misuse reachable from the public API returns errors
// instead of panicking (invariant panics deeper in the controller stay).
func TestEnqueueArityReturnsError(t *testing.T) {
	r := newRig(t, 4, false)
	for _, entries := range [][]Entry{{}, {r.data(0, 0), r.data(0, 1), r.data(0, 2)}} {
		called := false
		err := r.c.Enqueue(0, entries, func(uint64) { called = true })
		if err == nil {
			t.Errorf("Enqueue accepted %d entries", len(entries))
		}
		if called {
			t.Errorf("accept callback fired for a rejected %d-entry group", len(entries))
		}
		if r.c.Len() != 0 || r.c.PendingWaiters() != 0 {
			t.Errorf("rejected group left state behind: len=%d waiters=%d", r.c.Len(), r.c.PendingWaiters())
		}
	}
}

func TestTinyCapacityReturnsError(t *testing.T) {
	cfg := config.Default()
	cfg.MemBytes = 1 << 20
	dev := nvm.NewDevice(cfg)
	if c, err := New(&sim.Engine{}, dev, 1, false, &stats.Metrics{}); err == nil || c != nil {
		t.Fatalf("New(capacity=1) = (%v, %v), want nil controller and an error", c, err)
	}
}

// Regression test for the retryAt 0-sentinel bug: cycle 0 is a
// legitimate retry time (a bank untouched since simulation start has
// BankFreeAt == 0), but the old encoding used 0 to mean "no retry
// armed", so every scheduleRetry call for such a bank armed another
// duplicate event.
func TestScheduleRetryAtCycleZeroArmsOnce(t *testing.T) {
	cfg := config.Default()
	r := newRig(t, 16, false)
	if got := r.dev.BankFreeAt(3); got != 0 {
		t.Fatalf("untouched bank BankFreeAt = %d, want 0", got)
	}
	r.c.scheduleRetry(3)
	r.c.scheduleRetry(3)
	r.c.scheduleRetry(3)
	if got := r.eng.Pending(); got != 1 {
		t.Fatalf("Pending = %d events after 3 retry arms for one idle bank, want 1 (deduplicated)", got)
	}
	// A bank-conflict workload starting at cycle 0 drains through the
	// armed cycle-0 retry without stalling or flooding the event queue.
	for i := uint64(0); i < 6; i++ {
		r.enq(0, r.data(3, i))
	}
	r.c.Flush(0)
	r.eng.Run()
	if !r.c.Drained() {
		t.Fatal("cycle-0 bank-conflict workload never drained")
	}
	if r.eng.Now() != 6*cfg.WriteCycles {
		t.Fatalf("drain finished at %d, want %d (serial on one bank)", r.eng.Now(), 6*cfg.WriteCycles)
	}
	if r.m.DataWrites != 6 {
		t.Fatalf("DataWrites = %d, want 6", r.m.DataWrites)
	}
}

// Regression test for the issue-window stall: when all 8 window entries
// target one hot bank, a write to an idle bank just past the window must
// still issue immediately — banks are independent — instead of waiting
// for hot-bank retires to advance the window.
func TestIdleBankWriteBeyondWindowIssues(t *testing.T) {
	cfg := config.Default()
	r := newRig(t, 16, false)
	// 9 writes to hot bank 0: one more than the issue window.
	for i := uint64(0); i < 9; i++ {
		r.enq(0, r.data(0, i))
	}
	// One write to idle bank 5, sitting just beyond the window.
	r.enq(0, r.data(5, 0))
	r.c.Flush(0)
	// Flush issues synchronously: the first hot-bank write plus the
	// beyond-window idle-bank write must both be in flight at cycle 0.
	if r.m.DataWrites != 2 {
		t.Fatalf("writes in flight at cycle 0 = %d, want 2 (hot head + beyond-window idle-bank write)", r.m.DataWrites)
	}
	r.eng.Run()
	if !r.c.Drained() {
		t.Fatal("queue never drained")
	}
	if r.eng.Now() != 9*cfg.WriteCycles {
		t.Fatalf("drain finished at %d, want %d (hot bank serial, idle bank in parallel)", r.eng.Now(), 9*cfg.WriteCycles)
	}
}

// Beyond-window issue must not break CWC: a counter entry past the
// window stays un-issued (lingering is what lets later rewrites
// coalesce, Section 3.4.3) even when its bank is idle.
func TestBeyondWindowLeavesCountersForCWC(t *testing.T) {
	r := newRig(t, 32, true)
	for i := uint64(0); i < 9; i++ {
		r.enq(0, r.data(0, i))
	}
	r.enq(0, r.ctr(5, 0)) // beyond window, idle bank, but a counter
	r.c.Flush(0)
	if r.m.CounterWrites != 0 {
		t.Fatalf("CounterWrites = %d at cycle 0: beyond-window issue consumed a coalescible counter", r.m.CounterWrites)
	}
	r.enq(0, r.ctr(5, 0)) // coalesces into the lingering entry
	r.eng.Run()
	if r.m.CoalescedWrites != 1 {
		t.Fatalf("CoalescedWrites = %d, want 1", r.m.CoalescedWrites)
	}
	if r.m.CounterWrites != 1 {
		t.Fatalf("CounterWrites = %d, want 1 (one survivor)", r.m.CounterWrites)
	}
}

// The CWC benefit must grow with queue length: with a longer queue, more
// un-issued counter writes with the same address accumulate (Figure 16a).
func TestLongerQueueCoalescesMore(t *testing.T) {
	coalesced := func(capacity int) uint64 {
		r := newRig(t, capacity, true)
		fills := 0
		// Alternate data writes (to one busy bank) and counter writes to
		// one counter line, all at time 0; small queues force stalls
		// that issue counters before they can coalesce.
		for i := 0; i < 40; i++ {
			r.c.Enqueue(0, []Entry{r.data(0, uint64(i))}, func(uint64) { fills++ })
			r.c.Enqueue(0, []Entry{r.ctr(4, 0)}, func(uint64) { fills++ })
			r.eng.RunUntil(r.eng.Now()) // let same-time events settle
		}
		r.eng.Run()
		return r.m.CoalescedWrites
	}
	small := coalesced(4)
	large := coalesced(64)
	if large <= small {
		t.Fatalf("coalescing did not grow with queue size: cap4=%d cap64=%d", small, large)
	}
}

// faultRig builds a rig with a bank-fault schedule attached and a
// retry/quarantine policy configured.
func faultRig(t *testing.T, injections []fault.Injection, limit int, backoff uint64, threshold int) *rig {
	t.Helper()
	r := newRig(t, 16, false)
	r.dev.SetFaults(fault.NewBankFaults(fault.Plan{Injections: injections}, r.dev.Banks()))
	r.c.SetResilience(limit, backoff, threshold)
	return r
}

func TestReadRetryWithExponentialBackoff(t *testing.T) {
	// Bank 0 fails its first two accesses; the third succeeds.
	r := faultRig(t, []fault.Injection{
		{Kind: fault.BankFault, Step: 0, Target: 0, Arg: 2},
	}, 4, 16, 0)
	addr := r.l.BankBase(0)
	// Attempt 1: 0..126 fails. Attempt 2 at 126+16=142: 142..268 fails.
	// Attempt 3 at 268+32=300: 300..426 succeeds.
	read := config.Default().ReadCycles
	done := r.c.ReadLine(0, addr)
	if exp := read + 16 + read + 32 + read; done != exp {
		t.Fatalf("ReadLine done = %d, want %d (two backoffs of 16 and 32)", done, exp)
	}
	if r.m.ReadRetries != 2 || r.m.UncorrectedReads != 0 {
		t.Fatalf("retries=%d uncorrected=%d, want 2/0", r.m.ReadRetries, r.m.UncorrectedReads)
	}
}

func TestReadRetryBudgetExhaustion(t *testing.T) {
	r := faultRig(t, []fault.Injection{
		{Kind: fault.BankFault, Step: 0, Target: 0, Arg: 100},
	}, 2, 8, 0)
	r.c.ReadLine(0, r.l.BankBase(0))
	if r.m.UncorrectedReads != 1 {
		t.Fatalf("UncorrectedReads = %d, want 1", r.m.UncorrectedReads)
	}
	if r.m.ReadRetries != 1 {
		t.Fatalf("ReadRetries = %d, want 1 (limit 2 = one retry)", r.m.ReadRetries)
	}
}

func TestBankQuarantineRemapsReadsAndWrites(t *testing.T) {
	// Bank 0 fails persistently; threshold 2 quarantines it during the
	// first read's retry chain, so the final attempt and all later
	// traffic land on the partner bank (0 + 8/2) mod 8 = 4.
	r := faultRig(t, []fault.Injection{
		{Kind: fault.BankFault, Step: 0, Target: 0, Arg: 1 << 20},
	}, 4, 8, 2)
	addr := r.l.BankBase(0)
	r.c.ReadLine(0, addr)
	if r.m.QuarantinedBanks != 1 {
		t.Fatalf("QuarantinedBanks = %d, want 1", r.m.QuarantinedBanks)
	}
	if r.m.UncorrectedReads != 0 {
		t.Fatalf("UncorrectedReads = %d: the remapped retry should have succeeded", r.m.UncorrectedReads)
	}
	if r.m.BankRemaps == 0 {
		t.Fatal("no remap counted for the redirected retry")
	}
	// A later read of the same home bank is remapped up front and
	// succeeds on the first attempt.
	before := r.m.ReadRetries
	r.c.ReadLine(10_000, addr)
	if r.m.ReadRetries != before {
		t.Fatalf("remapped read still retried (%d -> %d)", before, r.m.ReadRetries)
	}
	// Writes to the quarantined bank are redirected at admit time.
	wBefore := r.dev.Stats()[4].Writes
	r.enq(20_000, r.data(0, 3))
	r.c.Flush(r.eng.Now())
	r.eng.Run()
	if got := r.dev.Stats()[4].Writes; got != wBefore+1 {
		t.Fatalf("partner bank writes = %d, want %d (write not remapped)", got, wBefore+1)
	}
	if got := r.dev.Stats()[0].Writes; got != 0 {
		t.Fatalf("quarantined bank still served %d writes", got)
	}
}

func TestQuarantinedPartnerKeepsHomeBank(t *testing.T) {
	// Both halves of the 0/4 pair fail persistently: once both are
	// quarantined there is nowhere coherent to remap, so the home bank
	// keeps its traffic (and reads surface as uncorrected).
	r := faultRig(t, []fault.Injection{
		{Kind: fault.BankFault, Step: 0, Target: 0, Arg: 1 << 20},
		{Kind: fault.BankFault, Step: 0, Target: 4, Arg: 1 << 20},
	}, 2, 8, 1)
	r.c.ReadLine(0, r.l.BankBase(0))
	r.c.ReadLine(1_000, r.l.BankBase(4))
	if r.m.QuarantinedBanks != 2 {
		t.Fatalf("QuarantinedBanks = %d, want 2", r.m.QuarantinedBanks)
	}
	remaps := r.m.BankRemaps
	r.c.ReadLine(2_000, r.l.BankBase(0))
	if r.m.BankRemaps != remaps {
		t.Fatalf("remapped onto a quarantined partner (remaps %d -> %d)", remaps, r.m.BankRemaps)
	}
	if r.m.UncorrectedReads == 0 {
		t.Fatal("fully-failed pair should produce uncorrected reads")
	}
}

func TestLatencySpikeStretchesRead(t *testing.T) {
	r := faultRig(t, []fault.Injection{
		{Kind: fault.BankLatency, Step: 0, Target: 0, Arg: 1 | 500<<32},
	}, 1, 0, 0)
	read := config.Default().ReadCycles
	if done := r.c.ReadLine(0, r.l.BankBase(0)); done != read+500 {
		t.Fatalf("spiked read done = %d, want %d", done, read+500)
	}
	// The spike window covered one access only.
	if done := r.c.ReadLine(10_000, r.l.BankBase(0)); done != 10_000+read {
		t.Fatalf("post-spike read done = %d, want %d", done, 10_000+read)
	}
}

func TestReadRetryBackoffCapped(t *testing.T) {
	// Regression: the k-th retry gap is backoff<<(k-1), and the retry
	// budget admits enough attempts that an uncapped shift walks past 64
	// bits — the gap wraps to zero and a dead bank turns into a zero-gap
	// retry storm. The cap clamps every gap at backoff<<MaxBackoffShift.
	const backoff = 4
	r := faultRig(t, []fault.Injection{
		{Kind: fault.BankFault, Step: 0, Target: 0, Arg: 1 << 30},
	}, 80, backoff, 0)
	for attempt, want := range map[int]uint64{
		1:  backoff,
		11: backoff << MaxBackoffShift,
		12: backoff << MaxBackoffShift,
		79: backoff << MaxBackoffShift,
	} {
		if got := r.c.retryGap(attempt); got != want {
			t.Errorf("retryGap(%d) = %d, want %d", attempt, got, want)
		}
	}
	// End to end: 80 attempts against a dead bank. Gaps 1..10 double,
	// 11..79 sit at the cap; every gap is positive and the read returns.
	read := config.Default().ReadCycles
	var exp uint64 = 80 * read
	for k := 1; k <= 79; k++ {
		shift := uint(k - 1)
		if shift > MaxBackoffShift {
			shift = MaxBackoffShift
		}
		exp += backoff << shift
	}
	if done := r.c.ReadLine(0, r.l.BankBase(0)); done != exp {
		t.Fatalf("ReadLine done = %d, want %d (capped backoff chain)", done, exp)
	}
	if r.m.UncorrectedReads != 1 || r.m.ReadRetries != 79 {
		t.Fatalf("uncorrected=%d retries=%d, want 1/79", r.m.UncorrectedReads, r.m.ReadRetries)
	}
}

func TestWearRotationRemapsAfterPeriod(t *testing.T) {
	r := newRig(t, 16, false)
	r.c.SetWearLeveling(4)
	// Four writes to bank 0 issue and trip one rotation advance.
	for i := uint64(0); i < 4; i++ {
		r.enq(0, r.data(0, i))
	}
	r.c.Flush(0)
	r.eng.Run()
	if r.m.WearRotations != 1 {
		t.Fatalf("WearRotations = %d after 4 issued writes (period 4), want 1", r.m.WearRotations)
	}
	if r.m.WearRemappedWrites != 0 {
		t.Fatalf("WearRemappedWrites = %d before any rotation was live at admit, want 0", r.m.WearRemappedWrites)
	}
	// The next write to home bank 0 is admitted under rotation 1 and
	// must be serviced by bank 1.
	before := r.dev.Stats()[1].Writes
	r.enq(r.eng.Now(), r.data(0, 10))
	r.c.Flush(r.eng.Now())
	r.eng.Run()
	if got := r.dev.Stats()[1].Writes; got != before+1 {
		t.Fatalf("bank 1 writes = %d, want %d (write not wear-remapped)", got, before+1)
	}
	if r.m.WearRemappedWrites != 1 {
		t.Fatalf("WearRemappedWrites = %d, want 1", r.m.WearRemappedWrites)
	}
	// Reads of the same home bank follow the rotation too.
	readsBefore := r.dev.Stats()[1].Reads
	r.c.ReadLine(r.eng.Now(), r.l.BankBase(0))
	if got := r.dev.Stats()[1].Reads; got != readsBefore+1 {
		t.Fatalf("bank 1 reads = %d, want %d (read not wear-remapped)", got, readsBefore+1)
	}
}
