package core

import (
	"testing"

	"supermem/internal/config"
	"supermem/internal/stats"
	"supermem/internal/trace"
)

// goldenMix exercises every charge point on one core: read misses (read
// stall charged at completion), write-allocate stores, flushes (counter
// fetch + AES charged at dispatch), compute delay, fences, and a
// transaction boundary.
func goldenMix() []trace.Op {
	return []trace.Op{
		{Kind: trace.TxBegin},
		{Kind: trace.Read, Addr: 0},
		{Kind: trace.Write, Addr: 64},
		{Kind: trace.Compute, Arg: 10},
		{Kind: trace.Read, Addr: 4096},
		{Kind: trace.Write, Addr: 4160},
		{Kind: trace.Flush, Addr: 64},
		{Kind: trace.Flush, Addr: 4160},
		{Kind: trace.Fence},
		{Kind: trace.TxEnd},
		{Kind: trace.Read, Addr: 8192},
		{Kind: trace.Write, Addr: 8192},
		{Kind: trace.Flush, Addr: 8192},
		{Kind: trace.Fence},
	}
}

// TestInOrderLatencyGoldens pins the in-order core's latencies. Any
// drift in a charge point — latency moving from dispatch to completion
// or vice versa — shows up here as a changed cycle count.
func TestInOrderLatencyGoldens(t *testing.T) {
	type golden struct {
		cycles, txCycles, readStall, wqStall uint64
		dataW, ctrW, nvmReads                uint64
	}
	goldens := map[config.Scheme]golden{
		config.Unsec:    {cycles: 2690, txCycles: 711, readStall: 630, wqStall: 0, dataW: 3, ctrW: 0, nvmReads: 5},
		config.WT:       {cycles: 2858, txCycles: 823, readStall: 702, wqStall: 0, dataW: 3, ctrW: 3, nvmReads: 8},
		config.WTCWC:    {cycles: 2858, txCycles: 823, readStall: 702, wqStall: 0, dataW: 3, ctrW: 3, nvmReads: 8},
		config.SuperMem: {cycles: 2858, txCycles: 823, readStall: 702, wqStall: 0, dataW: 3, ctrW: 3, nvmReads: 8},
		config.Osiris:   {cycles: 2858, txCycles: 823, readStall: 702, wqStall: 0, dataW: 3, ctrW: 0, nvmReads: 8},
		config.BMT:      {cycles: 14257, txCycles: 823, readStall: 702, wqStall: 0, dataW: 3, ctrW: 24, nvmReads: 8},
	}
	for s, want := range goldens {
		m := run(t, testConfig(s), goldenMix())
		got := golden{m.Cycles, m.TxCycles, m.ReadStallCycles, m.WQStallCycles, m.DataWrites, m.CounterWrites, m.NVMReads}
		if got != want {
			t.Errorf("%v: metrics drifted from pre-refactor goldens:\n got %+v\nwant %+v", s, got, want)
		}
		if m.Transactions != 1 {
			t.Errorf("%v: Transactions = %d, want 1", s, m.Transactions)
		}
	}
}

// TestInOrderMulticoreGolden pins the two-core case (shared write
// queue, distinct banks) the same way.
func TestInOrderMulticoreGolden(t *testing.T) {
	m := run(t, testConfig(config.SuperMem), writeFlush(0, 64), writeFlush(1<<20, 1<<20+64))
	want := stats.Metrics{Cycles: 1641, TxCycles: 882, WQStallCycles: 0, DataWrites: 4, CounterWrites: 2}
	if m.Cycles != want.Cycles || m.TxCycles != want.TxCycles || m.WQStallCycles != want.WQStallCycles ||
		m.DataWrites != want.DataWrites || m.CounterWrites != want.CounterWrites {
		t.Errorf("multicore SuperMem drifted: Cycles=%d TxCycles=%d WQStall=%d DataW=%d CtrW=%d, want %d/%d/%d/%d/%d",
			m.Cycles, m.TxCycles, m.WQStallCycles, m.DataWrites, m.CounterWrites,
			want.Cycles, want.TxCycles, want.WQStallCycles, want.DataWrites, want.CounterWrites)
	}
}
