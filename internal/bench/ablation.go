package bench

import (
	"fmt"

	"supermem/internal/config"
	"supermem/internal/stats"
)

// AblationPlacement isolates the counter placement policy (Figure 8):
// it runs the write-through design under SingleBank, SameBank, and
// XBank at 1 KB transactions, with and without CWC, and reports average
// transaction latency. SameBank is the strawman the paper argues
// doubles each bank's service time; XBank restores bank parallelism.
func AblationPlacement(base config.Config, o Opts) (*stats.Table, error) {
	type variant struct {
		name      string
		placement config.Placement
		cwc       bool
	}
	variants := []variant{
		{"SingleBank", config.SingleBank, false},
		{"SameBank", config.SameBank, false},
		{"XBank", config.XBank, false},
		{"SingleBank+CWC", config.SingleBank, true},
		{"SameBank+CWC", config.SameBank, true},
		{"XBank+CWC", config.XBank, true},
	}
	cols := make([]string, len(variants))
	for i, v := range variants {
		cols[i] = v.name
	}
	rows, err := runGrid(o, len(variants), func(wl string, ci int) Spec {
		cfg := base
		v := variants[ci]
		cfg.PlacementOverride = &v.placement
		cfg.CWCOverride = &v.cwc
		return o.spec(cfg, wl, config.WT, 1024, 1)
	})
	if err != nil {
		return nil, fmt.Errorf("ablation placement %w", err)
	}
	return gridTable("Ablation: write-through counter placement x CWC, 1KB tx latency (cycles)",
		cols, rows, stats.Metrics.AvgTxCycles), nil
}

// AblationTxSizeCoalescing reports the fraction of counter writes CWC
// removes as the transaction request size grows — the paper's locality
// argument (Section 3.4.2) in one table.
func AblationTxSizeCoalescing(base config.Config, o Opts) (*stats.Table, error) {
	sizes := []int{256, 512, 1024, 2048, 4096}
	cols := make([]string, len(sizes))
	for i, s := range sizes {
		cols[i] = fmt.Sprintf("%dB", s)
	}
	rows, err := runGrid(o, len(sizes), func(wl string, ci int) Spec {
		return o.spec(base, wl, config.SuperMem, sizes[ci], 1)
	})
	if err != nil {
		return nil, fmt.Errorf("ablation coalescing %w", err)
	}
	return gridTable("Ablation: % counter writes coalesced by transaction size (SuperMem)", cols, rows,
		func(m stats.Metrics) float64 {
			total := m.CounterWrites + m.CoalescedWrites
			if total == 0 {
				return 0
			}
			return 100 * float64(m.CoalescedWrites) / float64(total)
		}), nil
}

// ExtensionSCA compares this repository's extra SCA baseline (selective
// counter atomicity: write-back counters persisted atomically only on
// explicit flushes) against the paper's schemes at 1 KB transactions.
// Because the evaluation's transactions flush everything they write,
// SCA behaves close to WT on latency while keeping WB-like eviction
// counters — quantifying why SCA needed software help to be selective.
func ExtensionSCA(base config.Config, o Opts) (*stats.Table, error) {
	schemes := []config.Scheme{config.Unsec, config.WB, config.SCA, config.WT, config.SuperMem}
	cols, rows, err := schemeGrid(base, o, schemes, 1024, 1)
	if err != nil {
		return nil, fmt.Errorf("sca %w", err)
	}
	return gridTable("Extension: SCA baseline vs paper schemes, 1KB tx latency (cycles)",
		cols, rows, stats.Metrics.AvgTxCycles), nil
}

// ExtensionOsiris compares the Osiris extension (relaxed counter
// persistence: counters enqueue only every stop-loss-th update) against
// the paper's bracketing schemes at 1 KB transactions. The first table
// is average transaction latency; the second is counter writes reaching
// the memory-controller queue — the traffic the stop-loss interval
// removes, bought back at recovery time by counter probing (see the
// crash fuzzer's recovery_probes column). Both tables come from one
// cell grid, so the artifact is deterministic at any parallelism.
func ExtensionOsiris(base config.Config, o Opts) (latency, writes *stats.Table, err error) {
	schemes := []config.Scheme{config.Unsec, config.WB, config.Osiris, config.WT, config.SuperMem}
	cols, rows, err := schemeGrid(base, o, schemes, 1024, 1)
	if err != nil {
		return nil, nil, fmt.Errorf("osiris %w", err)
	}
	latency = gridTable("Extension: Osiris stop-loss vs paper schemes, 1KB tx latency (cycles)",
		cols, rows, stats.Metrics.AvgTxCycles)
	writes = gridTable("Extension: Osiris counter writes enqueued, 1KB transactions", cols, rows,
		func(m stats.Metrics) float64 { return float64(m.CounterWrites) })
	return latency, writes, nil
}
