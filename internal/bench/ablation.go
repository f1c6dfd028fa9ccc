package bench

import (
	"fmt"

	"supermem/internal/config"
	"supermem/internal/stats"
	"supermem/internal/workload"
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
	t, err := runGrid(o,
		"Ablation: write-through counter placement x CWC, 1KB tx latency (cycles)",
		cols,
		func(ri, ci int) Spec {
			cfg := base
			v := variants[ci]
			cfg.PlacementOverride = &v.placement
			cfg.CWCOverride = &v.cwc
			return o.spec(cfg, workload.Names[ri], config.WT, 1024, 1)
		},
		stats.Metrics.AvgTxCycles)
	if err != nil {
		return nil, fmt.Errorf("ablation placement %w", err)
	}
	return t, nil
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
	t, err := runGrid(o,
		"Ablation: % counter writes coalesced by transaction size (SuperMem)",
		cols,
		func(ri, ci int) Spec { return o.spec(base, workload.Names[ri], config.SuperMem, sizes[ci], 1) },
		func(m stats.Metrics) float64 {
			total := m.CounterWrites + m.CoalescedWrites
			if total == 0 {
				return 0
			}
			return 100 * float64(m.CoalescedWrites) / float64(total)
		})
	if err != nil {
		return nil, fmt.Errorf("ablation coalescing %w", err)
	}
	return t, nil
}

// ExtensionSCA compares this repository's extra SCA baseline (selective
// counter atomicity: write-back counters persisted atomically only on
// explicit flushes) against the paper's schemes at 1 KB transactions.
// Because the evaluation's transactions flush everything they write,
// SCA behaves close to WT on latency while keeping WB-like eviction
// counters — quantifying why SCA needed software help to be selective.
func ExtensionSCA(base config.Config, o Opts) (*stats.Table, error) {
	schemes := []config.Scheme{config.Unsec, config.WB, config.SCA, config.WT, config.SuperMem}
	cols := make([]string, len(schemes))
	for i, s := range schemes {
		cols[i] = s.String()
	}
	t, err := runGrid(o,
		"Extension: SCA baseline vs paper schemes, 1KB tx latency (cycles)",
		cols,
		func(ri, ci int) Spec { return o.spec(base, workload.Names[ri], schemes[ci], 1024, 1) },
		stats.Metrics.AvgTxCycles)
	if err != nil {
		return nil, fmt.Errorf("sca %w", err)
	}
	return t, nil
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
	cols := make([]string, len(schemes))
	for i, s := range schemes {
		cols[i] = s.String()
	}
	cells := make([]Spec, 0, len(workload.Names)*len(schemes))
	for _, wl := range workload.Names {
		for _, s := range schemes {
			cells = append(cells, o.spec(base, wl, s, 1024, 1))
		}
	}
	ms, err := o.newRunner().RunCells(cells)
	if err != nil {
		return nil, nil, fmt.Errorf("osiris %w", err)
	}
	latency = stats.NewTable("Extension: Osiris stop-loss vs paper schemes, 1KB tx latency (cycles)", cols...)
	writes = stats.NewTable("Extension: Osiris counter writes enqueued, 1KB transactions", cols...)
	for ri, wl := range workload.Names {
		latRow := make([]float64, len(schemes))
		wrRow := make([]float64, len(schemes))
		for ci := range schemes {
			m := ms[ri*len(schemes)+ci]
			latRow[ci] = m.AvgTxCycles()
			wrRow[ci] = float64(m.CounterWrites)
		}
		latency.AddRow(wl, latRow...)
		writes.AddRow(wl, wrRow...)
	}
	return latency, writes, nil
}
