package core

import (
	"math/rand"
	"testing"

	"supermem/internal/config"
	"supermem/internal/stats"
	"supermem/internal/trace"
)

func oooConfig(s config.Scheme, width, mshrs, degree int) config.Config {
	c := testConfig(s)
	c.CoreModel = config.CoreOoO
	c.OoOWidth = width
	c.MSHREntries = mshrs
	c.PrefetchDegree = degree
	return c
}

// randTrace generates a well-formed random op stream: transactions of
// reads, writes, flushes, and compute delays over a small footprint.
func randTrace(seed int64, n int, withReset bool) []trace.Op {
	rng := rand.New(rand.NewSource(seed))
	var ops []trace.Op
	if withReset {
		ops = append(ops, trace.Op{Kind: trace.Write, Addr: 0}, trace.Op{Kind: trace.Flush, Addr: 0},
			trace.Op{Kind: trace.Fence}, trace.Op{Kind: trace.Reset})
	}
	lines := make([]uint64, 0, 8)
	for i := 0; i < n; i++ {
		ops = append(ops, trace.Op{Kind: trace.TxBegin})
		lines = lines[:0]
		for j := 0; j < 1+rng.Intn(6); j++ {
			addr := uint64(rng.Intn(1<<16)) &^ 63
			switch rng.Intn(3) {
			case 0:
				ops = append(ops, trace.Op{Kind: trace.Read, Addr: addr})
			case 1:
				ops = append(ops, trace.Op{Kind: trace.Write, Addr: addr})
				lines = append(lines, addr)
			case 2:
				ops = append(ops, trace.Op{Kind: trace.Compute, Arg: uint64(1 + rng.Intn(40))})
			}
		}
		for _, l := range lines {
			ops = append(ops, trace.Op{Kind: trace.Flush, Addr: l})
		}
		ops = append(ops, trace.Op{Kind: trace.Fence}, trace.Op{Kind: trace.TxEnd})
	}
	return ops
}

// TestOoOWidth1EquivalentToInOrder checks the name route: a core named
// "inorder" and a core named "ooo" with a one-op window and no
// prefetching run the same model, so the two produce identical metrics
// on any trace — including multi-core runs over the shared write queue.
func TestOoOWidth1EquivalentToInOrder(t *testing.T) {
	schemes := []config.Scheme{config.Unsec, config.WT, config.SuperMem, config.Osiris, config.BMT}
	for seed := int64(1); seed <= 8; seed++ {
		for _, s := range schemes {
			single := randTrace(seed, 12, seed%2 == 0)
			inorder := run(t, testConfig(s), single)
			ooo := run(t, oooConfig(s, 1, 0, 0), single)
			if inorder != ooo {
				t.Fatalf("seed %d scheme %v single-core: width-1 OoO diverged from in-order:\n inorder %+v\n ooo     %+v", seed, s, inorder, ooo)
			}
			a, b := randTrace(seed*31, 10, false), randTrace(seed*37, 10, false)
			inorder2 := run(t, testConfig(s), a, b)
			ooo2 := run(t, oooConfig(s, 1, 0, 0), a, b)
			if inorder2 != ooo2 {
				t.Fatalf("seed %d scheme %v two-core: width-1 OoO diverged from in-order:\n inorder %+v\n ooo     %+v", seed, s, inorder2, ooo2)
			}
		}
	}
}

// TestInOrderCoreIgnoresOoOKnobs: the OoO sizing knobs size only the
// cores that run the "ooo" model. An in-order core keeps its one-op
// window, the default MSHR file and no prefetcher when another core
// sets a window, a one-entry MSHR file and a prefetch degree, so its
// metrics equal the same trace run alone on one in-order core.
func TestInOrderCoreIgnoresOoOKnobs(t *testing.T) {
	schemes := []config.Scheme{config.Unsec, config.WT, config.SuperMem, config.Osiris, config.BMT}
	for seed := int64(1); seed <= 4; seed++ {
		for _, s := range schemes {
			withReset := seed%2 == 0
			// The stride scan would train a prefetcher, were one attached.
			trc := append(randTrace(seed, 12, withReset), strideStream(16)...)
			alone := run(t, testConfig(s), trc)

			// The idle core only resets, so the warmup snapshot still
			// falls at core 0's Reset.
			var idle []trace.Op
			if withReset {
				idle = []trace.Op{{Kind: trace.Reset}}
			}
			cfg := testConfig(s)
			cfg.CoreModels[1] = config.CoreOoO
			cfg.OoOWidth = 2
			cfg.MSHREntries = 1
			cfg.PrefetchDegree = 4
			mixed := run(t, cfg, trc, idle)
			if alone != mixed {
				t.Fatalf("seed %d scheme %v: in-order core changed beside an OoO core's knobs:\n alone %+v\n mixed %+v", seed, s, alone, mixed)
			}
		}
	}
}

// missStream returns a read stream over distinct lines spread across
// banks: independent misses an OoO window can overlap.
func missStream(n int) []trace.Op {
	ops := []trace.Op{{Kind: trace.TxBegin}}
	for i := 0; i < n; i++ {
		// Stride of one page: every read misses the whole hierarchy and
		// walks the banks.
		ops = append(ops, trace.Op{Kind: trace.Read, Addr: uint64(i) * 4096})
	}
	ops = append(ops, trace.Op{Kind: trace.Fence}, trace.Op{Kind: trace.TxEnd})
	return ops
}

// TestOoOWidthOverlapsMisses: widening the in-flight window overlaps
// independent read misses, so total cycles drop monotonically enough to
// matter (the MLP experiment's headline effect).
func TestOoOWidthOverlapsMisses(t *testing.T) {
	w1 := run(t, oooConfig(config.SuperMem, 1, 16, 0), missStream(64))
	w4 := run(t, oooConfig(config.SuperMem, 4, 16, 0), missStream(64))
	if w4.Cycles >= w1.Cycles {
		t.Fatalf("width 4 (%d cycles) not faster than width 1 (%d cycles) on independent misses", w4.Cycles, w1.Cycles)
	}
	if w4.NVMReads != w1.NVMReads {
		t.Fatalf("width should not change read demand: w1 %d reads, w4 %d reads", w1.NVMReads, w4.NVMReads)
	}
}

// TestOoODeterministic: the OoO model with MSHRs and prefetching is
// pure arithmetic over simulated cycles — two identical runs produce
// identical metrics.
func TestOoODeterministic(t *testing.T) {
	trc := randTrace(7, 40, false)
	a := run(t, oooConfig(config.SuperMem, 4, 4, 2), trc)
	b := run(t, oooConfig(config.SuperMem, 4, 4, 2), trc)
	if a != b {
		t.Fatalf("OoO run not deterministic:\n a %+v\n b %+v", a, b)
	}
}

// TestMSHRSameLineMerge: requests for a line whose fill is in flight
// merge — one NVM read, later requesters see the first fill's
// completion time, and ordering is preserved (a merge never completes
// before the fill it joined).
func TestMSHRSameLineMerge(t *testing.T) {
	cfg := oooConfig(config.SuperMem, 4, 4, 0)
	cfg.Cores = 1
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := sys.cores[0].mem
	reads := sys.m.NVMReads

	done1 := f.readLine(100, 4096)
	if done1 <= 100 {
		t.Fatalf("fill completed instantly: done %d", done1)
	}
	merged := f.readLine(110, 4096) // while in flight
	if merged != done1 {
		t.Fatalf("same-line merge returned %d, want the in-flight completion %d", merged, done1)
	}
	if got := sys.cores[0].m.MSHRMerges; got != 1 {
		t.Fatalf("MSHRMerges = %d, want 1", got)
	}
	if got := sys.m.NVMReads - reads; got != 1 {
		t.Fatalf("NVM reads for two same-line requests = %d, want 1 (merge)", got)
	}
	// After the fill completes the entry is stale: a new request
	// re-reads.
	again := f.readLine(done1+1, 4096)
	if again <= done1 {
		t.Fatalf("post-completion request returned %d, not a fresh fill after %d", again, done1)
	}
	if got := sys.m.NVMReads - reads; got != 2 {
		t.Fatalf("NVM reads after re-request = %d, want 2", got)
	}
}

// TestMSHRFullStall: with every entry in flight, a new miss waits for
// the earliest completion, the wait is charged to MSHRStallCycles, and
// the outcome is identical across runs.
func TestMSHRFullStall(t *testing.T) {
	stall := func() (uint64, stats.Metrics) {
		cfg := oooConfig(config.SuperMem, 4, 2, 0)
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		f := sys.cores[0].mem
		d1 := f.readLine(0, 0)
		d2 := f.readLine(0, 4096)
		earliest := min(d1, d2)
		d3 := f.readLine(1, 8192) // both entries in flight: must wait
		if d3 <= earliest {
			t.Fatalf("third miss completed at %d, before the earliest in-flight fill %d freed an entry", d3, earliest)
		}
		m := sys.cores[0].m
		if m.MSHRFullStalls != 1 {
			t.Fatalf("MSHRFullStalls = %d, want 1", m.MSHRFullStalls)
		}
		if want := earliest - 1; m.MSHRStallCycles != want {
			t.Fatalf("MSHRStallCycles = %d, want %d (wait from cycle 1 to %d)", m.MSHRStallCycles, want, earliest)
		}
		return d3, m
	}
	d3a, ma := stall()
	d3b, mb := stall()
	if d3a != d3b || ma != mb {
		t.Fatalf("full-MSHR stall not deterministic: %d/%+v vs %d/%+v", d3a, ma, d3b, mb)
	}
}

// strideStream: a unit-stride read scan with compute gaps — the
// prefetcher's best case. The gaps matter: on a back-to-back scan the
// banks are saturated and fetching a line early cannot beat the bank
// busy-window arithmetic, so prefetching only pays when there is idle
// bank time to hide fills in.
func strideStream(n int) []trace.Op {
	ops := []trace.Op{{Kind: trace.TxBegin}}
	for i := 0; i < n; i++ {
		ops = append(ops,
			trace.Op{Kind: trace.Read, Addr: uint64(i) * 64},
			trace.Op{Kind: trace.Compute, Arg: 400})
	}
	ops = append(ops, trace.Op{Kind: trace.Fence}, trace.Op{Kind: trace.TxEnd})
	return ops
}

// TestPrefetcherHidesStrideMisses: on a unit-stride scan the prefetcher
// issues, its lines are claimed by later demand reads (useful), and the
// read stall shrinks against the same config without prefetching.
func TestPrefetcherHidesStrideMisses(t *testing.T) {
	off := run(t, oooConfig(config.SuperMem, 4, 16, 0), strideStream(512))
	on := run(t, oooConfig(config.SuperMem, 4, 16, 4), strideStream(512))
	if on.PrefetchIssued == 0 {
		t.Fatal("prefetcher never issued on a unit-stride scan")
	}
	if on.PrefetchUseful == 0 {
		t.Fatal("no prefetch was ever claimed by a demand read")
	}
	if on.ReadStallCycles >= off.ReadStallCycles {
		t.Fatalf("prefetching did not reduce read stall: on %d >= off %d", on.ReadStallCycles, off.ReadStallCycles)
	}
}

// TestPrefetchDroppedOnFullWriteQueue: when the write queue is
// pressured (a flush storm keeps it at the drop threshold), prefetch
// candidates are discarded, not queued — the prefetcher must never push
// durable writes into longer stalls.
func TestPrefetchDroppedOnFullWriteQueue(t *testing.T) {
	cfg := oooConfig(config.SuperMem, 4, 16, 4)
	cfg.WriteQueueEntries = 4
	cfg.WriteCycles = 2000 // writes drain slowly: the queue stays hot
	var ops []trace.Op
	ops = append(ops, trace.Op{Kind: trace.TxBegin})
	for i := 0; i < 64; i++ {
		line := uint64(i) * 64
		ops = append(ops,
			trace.Op{Kind: trace.Write, Addr: line},
			trace.Op{Kind: trace.Flush, Addr: line})
	}
	ops = append(ops, trace.Op{Kind: trace.Fence}, trace.Op{Kind: trace.TxEnd})
	m := run(t, cfg, ops)
	if m.PrefetchDropped == 0 {
		t.Fatalf("no prefetch dropped under a saturated write queue (issued %d, useful %d)", m.PrefetchIssued, m.PrefetchUseful)
	}
}

// TestOoOSteadyStateZeroAllocs gates the OoO dispatch path on the
// zero-alloc line. A System runs once, so the setup cost (caches, MSHR
// file, slots) is isolated by differencing two run lengths over the
// same working set: the delta is the steady-state per-op cost, which
// must stay at zero once the group buffers and event heap are warm.
func TestOoOSteadyStateZeroAllocs(t *testing.T) {
	allocsFor := func(iters int) float64 {
		ops := []trace.Op{{Kind: trace.TxBegin}}
		for i := 0; i < iters; i++ {
			line := uint64(i%16) * 64
			ops = append(ops,
				trace.Op{Kind: trace.Read, Addr: line},
				trace.Op{Kind: trace.Write, Addr: line},
				trace.Op{Kind: trace.Flush, Addr: line},
				trace.Op{Kind: trace.Fence})
		}
		ops = append(ops, trace.Op{Kind: trace.TxEnd})
		cfg := oooConfig(config.SuperMem, 4, 8, 2)
		cfg.Cores = 1
		return testing.AllocsPerRun(5, func() {
			sys, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sys.Run([]trace.Source{trace.NewSliceSource(ops)}); err != nil {
				t.Fatal(err)
			}
		})
	}
	base, big := allocsFor(64), allocsFor(192)
	if perOp := (big - base) / float64(4*128); perOp > 0.05 {
		t.Fatalf("OoO steady state allocates %.3f objects per op (64 iters: %.0f, 192 iters: %.0f), want 0",
			perOp, base, big)
	}
}

// TestOoOConfigValidation: the knobs fail closed.
func TestOoOConfigValidation(t *testing.T) {
	bad := testConfig(config.SuperMem)
	bad.CoreModel = "speculative"
	if err := bad.Validate(); err == nil {
		t.Fatal("unknown core model accepted")
	}
	orphan := testConfig(config.SuperMem)
	orphan.OoOWidth = 4
	if err := orphan.Validate(); err == nil {
		t.Fatal("OoO width accepted without an OoO core")
	}
	perCore := testConfig(config.SuperMem)
	perCore.Cores = 2
	perCore.CoreModels[1] = config.CoreOoO
	perCore.MSHREntries = 4
	if err := perCore.Validate(); err != nil {
		t.Fatalf("per-core OoO override rejected: %v", err)
	}
}

// TestPerCoreModels: a mixed system — core 0 OoO, core 1 in-order —
// runs both sizings against the shared write queue and finishes.
func TestPerCoreModels(t *testing.T) {
	cfg := testConfig(config.SuperMem)
	cfg.CoreModels[0] = config.CoreOoO
	cfg.OoOWidth = 4
	m := run(t, cfg, missStream(32), writeFlush(1<<20, 1<<20+64, 1<<20+128))
	if m.Transactions != 2 {
		t.Fatalf("Transactions = %d, want 2", m.Transactions)
	}
}
