package core

import (
	"testing"

	"supermem/internal/config"
	"supermem/internal/stats"
	"supermem/internal/trace"
)

func testConfig(s config.Scheme) config.Config {
	c := config.Default()
	c.MemBytes = 8 << 20 // 1 MB banks keep tests tiny
	c.Scheme = s
	return c
}

func run(t *testing.T, cfg config.Config, ops ...[]trace.Op) stats.Metrics {
	t.Helper()
	cfg.Cores = len(ops)
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srcs := make([]trace.Source, len(ops))
	for i := range ops {
		srcs[i] = trace.NewSliceSource(ops[i])
	}
	m, err := sys.Run(srcs)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// writeFlush builds the canonical persist sequence for a set of lines.
func writeFlush(lines ...uint64) []trace.Op {
	var ops []trace.Op
	ops = append(ops, trace.Op{Kind: trace.TxBegin})
	for _, l := range lines {
		ops = append(ops, trace.Op{Kind: trace.Write, Addr: l})
	}
	for _, l := range lines {
		ops = append(ops, trace.Op{Kind: trace.Flush, Addr: l})
	}
	ops = append(ops, trace.Op{Kind: trace.Fence}, trace.Op{Kind: trace.TxEnd})
	return ops
}

func TestUnsecWritesNoCounters(t *testing.T) {
	m := run(t, testConfig(config.Unsec), writeFlush(0, 64, 128))
	if m.DataWrites != 3 {
		t.Fatalf("DataWrites = %d, want 3", m.DataWrites)
	}
	if m.CounterWrites != 0 {
		t.Fatalf("CounterWrites = %d, want 0 in Unsec", m.CounterWrites)
	}
	if m.Transactions != 1 {
		t.Fatalf("Transactions = %d, want 1", m.Transactions)
	}
}

func TestWTDoublesWrites(t *testing.T) {
	m := run(t, testConfig(config.WT), writeFlush(0, 64, 128))
	if m.DataWrites != 3 {
		t.Fatalf("DataWrites = %d, want 3", m.DataWrites)
	}
	if m.CounterWrites != 3 {
		t.Fatalf("CounterWrites = %d, want 3 (write-through, no CWC)", m.CounterWrites)
	}
}

func TestCWCCoalescesSamePageCounters(t *testing.T) {
	// 8 flushed lines in one page share one counter line; with a busy
	// counter bank, most counter writes coalesce.
	lines := make([]uint64, 8)
	for i := range lines {
		lines[i] = uint64(i * 64)
	}
	m := run(t, testConfig(config.WTCWC), writeFlush(lines...))
	if m.DataWrites != 8 {
		t.Fatalf("DataWrites = %d, want 8", m.DataWrites)
	}
	if m.CounterWrites+m.CoalescedWrites != 8 {
		t.Fatalf("counter writes %d + coalesced %d != 8", m.CounterWrites, m.CoalescedWrites)
	}
	if m.CoalescedWrites == 0 {
		t.Fatal("CWC coalesced nothing for same-page flushes")
	}
}

func TestWBCountersStayCached(t *testing.T) {
	m := run(t, testConfig(config.WB), writeFlush(0, 64, 128))
	if m.CounterWrites != 0 {
		t.Fatalf("CounterWrites = %d, want 0 (dirty counters stay in the cache)", m.CounterWrites)
	}
	if m.DataWrites != 3 {
		t.Fatalf("DataWrites = %d, want 3", m.DataWrites)
	}
}

func TestTxLatencyMeasured(t *testing.T) {
	m := run(t, testConfig(config.Unsec), writeFlush(0))
	if m.Transactions != 1 || m.TxCycles == 0 {
		t.Fatalf("tx latency not measured: %d txs, %d cycles", m.Transactions, m.TxCycles)
	}
	if m.AvgTxCycles() <= 0 {
		t.Fatal("AvgTxCycles not positive")
	}
}

func TestEncryptedReadSlowerThanUnsec(t *testing.T) {
	ops := []trace.Op{{Kind: trace.Read, Addr: 4096}}
	mu := run(t, testConfig(config.Unsec), ops)
	me := run(t, testConfig(config.WT), ops)
	if me.Cycles <= mu.Cycles {
		t.Fatalf("encrypted cold read (%d cy) not slower than unencrypted (%d cy)", me.Cycles, mu.Cycles)
	}
}

func TestCachedReadAvoidsMemory(t *testing.T) {
	ops := []trace.Op{
		{Kind: trace.Read, Addr: 4096},
		{Kind: trace.Read, Addr: 4096},
		{Kind: trace.Read, Addr: 4100}, // same line
	}
	m := run(t, testConfig(config.WT), ops)
	// One data read, one counter read; the later hits stay in L1.
	if m.NVMReads != 2 {
		t.Fatalf("NVMReads = %d, want 2 (data+counter, then cache hits)", m.NVMReads)
	}
}

func TestCounterCacheHitOnSecondLineOfPage(t *testing.T) {
	ops := []trace.Op{
		{Kind: trace.Read, Addr: 0},
		{Kind: trace.Read, Addr: 64}, // same page, different line
	}
	m := run(t, testConfig(config.WT), ops)
	if m.CtrCacheMisses != 1 || m.CtrCacheHits != 1 {
		t.Fatalf("ctr cache hits/misses = %d/%d, want 1/1", m.CtrCacheHits, m.CtrCacheMisses)
	}
}

func TestXBankFasterThanSingleBankWhenColocated(t *testing.T) {
	// Put the data in the last bank, where SingleBank also stores every
	// counter: data and counter writes then serialize on one bank.
	// XBank moves the counters to bank (N-1+N/2) mod N, restoring
	// parallelism (Figure 8).
	cfg := testConfig(config.WT)
	sys, _ := NewSystem(cfg)
	layout := sys.Layout()
	base := layout.BankBase(cfg.Banks - 1)
	lines := make([]uint64, 16)
	for i := range lines {
		lines[i] = base + uint64(i)*config.PageSize // one line per page: no coalescing help
	}
	single := run(t, cfg, writeFlush(lines...))
	xcfg := cfg
	p := config.XBank
	xcfg.PlacementOverride = &p
	xbank := run(t, xcfg, writeFlush(lines...))
	if xbank.Cycles >= single.Cycles {
		t.Fatalf("XBank (%d cy) not faster than SingleBank (%d cy) under bank conflict", xbank.Cycles, single.Cycles)
	}
}

func TestMinorOverflowTriggersReencryption(t *testing.T) {
	// Flush the same line 200 times: the 7-bit minor overflows at write
	// 128 and the page re-encrypts.
	var ops []trace.Op
	for i := 0; i < 200; i++ {
		ops = append(ops,
			trace.Op{Kind: trace.Write, Addr: 0},
			trace.Op{Kind: trace.Flush, Addr: 0},
			trace.Op{Kind: trace.Fence})
	}
	m := run(t, testConfig(config.SuperMem), ops)
	if m.Reencryptions != 1 {
		t.Fatalf("Reencryptions = %d, want 1", m.Reencryptions)
	}
	if m.ReencryptLines != config.LinesPerPage {
		t.Fatalf("ReencryptLines = %d, want %d", m.ReencryptLines, config.LinesPerPage)
	}
}

func TestNoReencryptionBelowOverflow(t *testing.T) {
	var ops []trace.Op
	for i := 0; i < 100; i++ {
		ops = append(ops,
			trace.Op{Kind: trace.Write, Addr: 0},
			trace.Op{Kind: trace.Flush, Addr: 0},
			trace.Op{Kind: trace.Fence})
	}
	m := run(t, testConfig(config.SuperMem), ops)
	if m.Reencryptions != 0 {
		t.Fatalf("Reencryptions = %d, want 0 for 100 writes", m.Reencryptions)
	}
}

func TestMultiCoreMergesMetrics(t *testing.T) {
	m := run(t, testConfig(config.SuperMem),
		writeFlush(0, 64),
		writeFlush(1<<20, 1<<20+64)) // second core in a different bank
	if m.Transactions != 2 {
		t.Fatalf("Transactions = %d, want 2 across cores", m.Transactions)
	}
	if m.DataWrites != 4 {
		t.Fatalf("DataWrites = %d, want 4", m.DataWrites)
	}
}

func TestSourceCountMismatch(t *testing.T) {
	sys, err := NewSystem(testConfig(config.Unsec))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(nil); err == nil {
		t.Fatal("Run accepted 0 sources for 1 core")
	}
}

func TestCleanFlushIsCheap(t *testing.T) {
	ops := []trace.Op{
		{Kind: trace.Read, Addr: 0},  // line cached clean
		{Kind: trace.Flush, Addr: 0}, // nothing to write back
	}
	m := run(t, testConfig(config.WT), ops)
	if m.DataWrites != 0 {
		t.Fatalf("DataWrites = %d, want 0 for clean flush", m.DataWrites)
	}
}

func TestFlushWithoutWriteQueuePressureStillCounts(t *testing.T) {
	// Flushing an unwritten (absent) line writes nothing.
	ops := []trace.Op{{Kind: trace.Flush, Addr: 128}}
	m := run(t, testConfig(config.SuperMem), ops)
	if m.DataWrites != 0 || m.CounterWrites != 0 {
		t.Fatalf("flush of absent line wrote %d/%d", m.DataWrites, m.CounterWrites)
	}
}

func TestWTSlowerThanUnsecUnderWritePressure(t *testing.T) {
	// A long flush stream across two pages of one bank with counters on
	// the same device: WT must take longer than Unsec.
	var lines []uint64
	for i := 0; i < 64; i++ {
		lines = append(lines, uint64(i*64))
	}
	mu := run(t, testConfig(config.Unsec), writeFlush(lines...))
	mw := run(t, testConfig(config.WT), writeFlush(lines...))
	if mw.Cycles <= mu.Cycles {
		t.Fatalf("WT (%d cy) not slower than Unsec (%d cy)", mw.Cycles, mu.Cycles)
	}
}

func TestDeterminism(t *testing.T) {
	lines := []uint64{0, 64, 4096, 8192, 1 << 20}
	a := run(t, testConfig(config.SuperMem), writeFlush(lines...))
	b := run(t, testConfig(config.SuperMem), writeFlush(lines...))
	if a != b {
		t.Fatalf("two identical runs diverged:\n%+v\n%+v", a, b)
	}
}
