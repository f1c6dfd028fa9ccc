package supermem_test

import (
	"testing"

	"supermem"
)

// fastSpec keeps public-API tests quick.
func fastSpec(scheme supermem.Scheme) supermem.RunSpec {
	return supermem.RunSpec{
		Workload:       "queue",
		Scheme:         scheme,
		TxBytes:        256,
		Transactions:   25,
		Warmup:         20,
		FootprintBytes: 256 << 10,
	}
}

func TestSimulateDefaults(t *testing.T) {
	res, err := supermem.Simulate(supermem.RunSpec{Scheme: supermem.SuperMem,
		Transactions: 10, Warmup: 5, FootprintBytes: 128 << 10, TxBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	if res.Transactions != 10 {
		t.Fatalf("Transactions = %d, want 10", res.Transactions)
	}
}

func TestSimulateDeterministic(t *testing.T) {
	a, err := supermem.Simulate(fastSpec(supermem.SuperMem))
	if err != nil {
		t.Fatal(err)
	}
	b, err := supermem.Simulate(fastSpec(supermem.SuperMem))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("identical specs diverged:\n%+v\n%+v", a, b)
	}
}

func TestSchemeOrderingPublicAPI(t *testing.T) {
	var unsec, wt, sm supermem.Metrics
	for _, c := range []struct {
		scheme supermem.Scheme
		out    *supermem.Metrics
	}{{supermem.Unsec, &unsec}, {supermem.WT, &wt}, {supermem.SuperMem, &sm}} {
		res, err := supermem.Simulate(fastSpec(c.scheme))
		if err != nil {
			t.Fatal(err)
		}
		*c.out = res
	}
	if !(unsec.AvgTxCycles() < sm.AvgTxCycles() && sm.AvgTxCycles() < wt.AvgTxCycles()) {
		t.Fatalf("latency ordering broken: Unsec=%.0f SuperMem=%.0f WT=%.0f",
			unsec.AvgTxCycles(), sm.AvgTxCycles(), wt.AvgTxCycles())
	}
	if sm.TotalNVMWrites() >= wt.TotalNVMWrites() {
		t.Fatalf("SuperMem writes (%d) not below WT (%d)", sm.TotalNVMWrites(), wt.TotalNVMWrites())
	}
}

func TestSimulateUnknownWorkload(t *testing.T) {
	spec := fastSpec(supermem.SuperMem)
	spec.Workload = "bogus"
	if _, err := supermem.Simulate(spec); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestWorkloadsAndSchemesLists(t *testing.T) {
	if len(supermem.Workloads()) != 5 {
		t.Fatalf("Workloads() = %v", supermem.Workloads())
	}
	w := supermem.Workloads()
	w[0] = "mutated"
	if got := supermem.Workloads()[0]; got != "array" {
		t.Fatalf("Workloads()[0] = %q after a caller edited its copy, want array", got)
	}
	if len(supermem.Schemes()) != 6 {
		t.Fatalf("Schemes() = %v", supermem.Schemes())
	}
}

func TestDefaultConfigIsTable2(t *testing.T) {
	cfg := supermem.DefaultConfig()
	if cfg.Banks != 8 || cfg.WriteQueueEntries != 32 || cfg.CounterCache.SizeBytes != 256<<10 {
		t.Fatalf("DefaultConfig diverges from Table 2: %+v", cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCrashSweepPublicAPI(t *testing.T) {
	res, err := supermem.CrashSweep(supermem.CrashSuperMem, "array", 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consistent() {
		t.Fatalf("SuperMem crash sweep inconsistent: %v", res.Inconsistent[0].Detail)
	}
}

func TestCrashFuzzPublicAPI(t *testing.T) {
	if n := len(supermem.CrashModes()); n != 9 {
		t.Fatalf("CrashModes lists %d designs, want 9", n)
	}
	res, err := supermem.CrashFuzz(supermem.CrashFuzzParams{
		Workload: "queue", Steps: 3, Nested: true, MaxNested: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CheckTable1(); err != nil {
		t.Fatalf("differential matrix deviates from Table 1: %v\n%s", err, res)
	}
	var sawCorrupt bool
	for _, v := range res.Verdicts {
		if v.Mode == supermem.CrashWBNoBattery {
			sawCorrupt = !v.Consistent()
		}
	}
	if !sawCorrupt {
		t.Fatal("WB-NoBattery never corrupted — the differential check is vacuous")
	}
	if supermem.CrashExpectedConsistent(supermem.CrashWBNoBattery, "array") {
		t.Fatal("WB-NoBattery expected consistent")
	}
	if !supermem.CrashExpectedConsistent(supermem.CrashSuperMem, "hashtable") {
		t.Fatal("SuperMem expected to corrupt")
	}
}

func TestTable1PublicAPI(t *testing.T) {
	res, err := supermem.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Recoverable[supermem.CrashSuperMem][1] { // mutate stage
		t.Fatal("SuperMem mutate-stage crash not recoverable")
	}
	if res.Recoverable[supermem.CrashWBNoBattery][1] {
		t.Fatal("WB-no-battery mutate-stage crash unexpectedly recoverable")
	}
}

func TestFigureRunnersSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("figure smoke test is slow")
	}
	cfg := supermem.DefaultConfig()
	cfg.MemBytes = 512 << 20
	opts := supermem.ExperimentOpts{Transactions: 15, Warmup: 20, FootprintBytes: 128 << 10}
	tbl, err := supermem.Figure13(cfg, 256, opts)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Rows() != 5 {
		t.Fatalf("Figure13 rows = %d", tbl.Rows())
	}
	tbl, err = supermem.Figure15(cfg, 256, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range tbl.RowLabels() {
		if v := tbl.Cell(wl, "WT"); v < 1.5 {
			t.Errorf("Figure15 %s WT = %.2f, want ~2", wl, v)
		}
	}
}

func TestSCAExtensionOrdering(t *testing.T) {
	// SCA (selective counter atomicity) sits between WB and WT on write
	// counts: flushes pay counters, evictions do not.
	var wb, sca, wt supermem.Metrics
	for _, c := range []struct {
		scheme supermem.Scheme
		out    *supermem.Metrics
	}{{supermem.WB, &wb}, {supermem.SCA, &sca}, {supermem.WT, &wt}} {
		res, err := supermem.Simulate(fastSpec(c.scheme))
		if err != nil {
			t.Fatal(err)
		}
		*c.out = res
	}
	if !(wb.CounterWrites <= sca.CounterWrites && sca.CounterWrites <= wt.CounterWrites) {
		t.Fatalf("counter writes not ordered: WB=%d SCA=%d WT=%d",
			wb.CounterWrites, sca.CounterWrites, wt.CounterWrites)
	}
	if len(supermem.ExtendedSchemes()) != 11 {
		t.Fatalf("ExtendedSchemes = %v", supermem.ExtendedSchemes())
	}
}

func TestBankStatsShowCounterBankBottleneck(t *testing.T) {
	// Under WT+SingleBank, the last bank (the counter bank) must be the
	// busiest; XBank spreads that load away.
	spec := fastSpec(supermem.WT)
	_, banks, err := supermem.SimulateWithBanks(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(banks) != 8 {
		t.Fatalf("got %d banks", len(banks))
	}
	last := banks[len(banks)-1]
	for i, b := range banks[:len(banks)-1] {
		if b.Writes > last.Writes {
			t.Fatalf("bank %d (%d writes) busier than the counter bank (%d) under SingleBank",
				i, b.Writes, last.Writes)
		}
	}
	// SuperMem (XBank) must not concentrate counter writes in bank 7.
	_, xbanks, err := supermem.SimulateWithBanks(fastSpec(supermem.SuperMem))
	if err != nil {
		t.Fatal(err)
	}
	if xbanks[7].Writes >= last.Writes {
		t.Fatalf("XBank bank 7 writes (%d) not below SingleBank's (%d)", xbanks[7].Writes, last.Writes)
	}
}
