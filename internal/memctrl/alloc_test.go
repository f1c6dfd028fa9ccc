package memctrl

import (
	"testing"

	"supermem/internal/config"
)

// nopAcceptor is a pre-allocated Acceptor so the regression test
// measures the controller's own allocations, not the caller's.
type nopAcceptor struct{ n int }

func (a *nopAcceptor) Accepted(uint64) { a.n++ }

// warmEnqueueRetire builds an 8-entry controller and returns its
// enqueue → issue → retire cycle (a data line and a counter line on two
// banks, flushed and retired by running the engine), warmed up so the
// queue slice, entry pool and event heap have grown.
func warmEnqueueRetire(tb testing.TB) (r *rig, acc *nopAcceptor, cycle func()) {
	r = newRig(tb, 8, true)
	acc = &nopAcceptor{}
	entries := []Entry{
		{Addr: r.l.BankBase(0)},
		{Addr: r.l.BankBase(1) + config.LineSize, Counter: true},
	}
	cycle = func() {
		if err := r.c.EnqueueTo(r.eng.Now(), entries, acc); err != nil {
			tb.Fatal(err)
		}
		r.c.Flush(r.eng.Now())
		r.eng.Run()
	}
	for i := 0; i < 32; i++ {
		cycle()
	}
	return r, acc, cycle
}

// TestEnqueueRetireZeroAllocs is the hot-path allocation gate: once the
// entry pool and queue storage are warm, a full enqueue → issue →
// retire cycle must not allocate. CI's bench-smoke job fails on any
// regression here (ISSUE 6 acceptance).
func TestEnqueueRetireZeroAllocs(t *testing.T) {
	r, acc, cycle := warmEnqueueRetire(t)
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("enqueue/issue/retire cycle allocates %v objects, want 0", allocs)
	}
	if acc.n == 0 {
		t.Fatal("acceptor never invoked")
	}
	if live := r.c.entryPool.Live(); live != 0 {
		t.Fatalf("%d queued entries leaked from the pool", live)
	}
}

// BenchmarkEnqueueRetire times the cycle TestEnqueueRetireZeroAllocs
// gates, the write-queue path every simulated NVM write takes.
func BenchmarkEnqueueRetire(b *testing.B) {
	_, _, cycle := warmEnqueueRetire(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}

// TestEntryPoolSteadyState verifies retire and CWC removal both return
// entries to the pool: total allocations stop growing after warmup.
func TestEntryPoolSteadyState(t *testing.T) {
	r := newRig(t, 8, true)
	for i := 0; i < 100; i++ {
		// Alternate a coalescible counter line and plain data so both
		// recycle paths (retire, CWC removal) run.
		r.c.Enqueue(r.eng.Now(), []Entry{r.data(0, uint64(i%4)), r.ctr(4, 0)}, func(uint64) {})
		if i%4 == 3 {
			r.c.Flush(r.eng.Now())
			r.eng.Run()
		}
	}
	r.c.Flush(r.eng.Now())
	r.eng.Run()
	if !r.c.Drained() {
		t.Fatal("controller did not drain")
	}
	if got := r.c.entryPool.Allocated(); got > 16 {
		t.Fatalf("pool allocated %d entries for a capacity-8 queue; recycling is broken", got)
	}
	if live := r.c.entryPool.Live(); live != 0 {
		t.Fatalf("%d entries leaked", live)
	}
}
