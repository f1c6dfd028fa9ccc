// Package bench is the experiment harness: it assembles workloads,
// heaps, and systems for each figure and table of the paper's
// evaluation (Figures 13-17, Table 1) and produces the same rows the
// paper plots.
package bench

import (
	"fmt"

	"supermem/internal/alloc"
	"supermem/internal/config"
	"supermem/internal/core"
	"supermem/internal/nvm"
	"supermem/internal/pmem"
	"supermem/internal/stats"
	"supermem/internal/trace"
	"supermem/internal/workload"
)

// Spec describes one simulation run.
type Spec struct {
	// Base is the system configuration template (scheme and core count
	// are overridden per run).
	Base config.Config
	// Workload is one of workload.Names.
	Workload string
	// Scheme is the secure-NVM design under test.
	Scheme config.Scheme
	// TxBytes is the transaction request size (256/1024/4096 in the
	// paper).
	TxBytes int
	// Transactions is the measured transaction count per core.
	Transactions int
	// Warmup is the number of unmeasured warmup transactions per core
	// (they populate tree/hash structures and warm the caches).
	Warmup int
	// Cores is the number of programs, each on its own core.
	Cores int
	// FootprintBytes is the per-program data footprint target.
	FootprintBytes uint64
	// Seed drives workload randomness (per-core offsets are added).
	Seed int64
	// SingleCoreBanks overrides how many adjacent banks a single
	// program spans (default 3: one for the log, two striping the
	// heap); multi-program runs always use one bank per program, the
	// paper's setup.
	SingleCoreBanks int
	// KV parameterizes the "kv" workload's request stream (keyspace,
	// value size, mix, Zipfian skew); ignored by the paper's five
	// microbenchmarks. The Shard field is overridden per core by
	// BuildSources. Every field is part of the trace-cache key.
	KV workload.KVConfig
	// Attack parameterizes the adversarial workloads
	// (workload.AttackNames); ignored by everything else. Part of the
	// trace-cache key.
	Attack workload.AttackConfig
	// CoreWorkloads overrides Workload per core ("" keeps Workload),
	// letting the attack experiment co-run an attacker and a victim.
	// Cores beyond the array's length run Workload. Part of the
	// trace-cache key.
	CoreWorkloads [4]string
	// CoreModel selects the per-core timing model that replays the
	// recorded stream (config.CoreInOrder or config.CoreOoO; "" keeps
	// Base.CoreModel). Timing-only: traces are generated functionally,
	// so model variants share one trace-cache entry. The model's other
	// knobs (per-core models, OoO width, MSHRs, prefetch degree) are set
	// on Base.
	CoreModel string
}

// config assembles the effective system configuration for the spec: the
// base template with the spec's core count, scheme and core model
// applied. Every run path (trace building, the system, the cell runner)
// derives its configuration here so they can never disagree. A cell
// whose cores all run in-order drops the template's OoO knobs (width,
// MSHRs, prefetch degree), which no core of it would read and which
// Validate rejects on such a system.
func (s Spec) config() config.Config {
	cfg := s.Base
	cfg.Cores = s.Cores
	cfg.Scheme = s.Scheme
	if s.CoreModel != "" {
		cfg.CoreModel = s.CoreModel
	}
	if !cfg.HasOoOCore() {
		cfg.OoOWidth, cfg.MSHREntries, cfg.PrefetchDegree = 0, 0, 0
	}
	return cfg
}

// Opts are the sizing knobs shared by all figure runners.
type Opts struct {
	Transactions   int
	Warmup         int
	FootprintBytes uint64
	Seed           int64
	// Parallel is the worker count for the cell grid (<= 0 means
	// GOMAXPROCS). Results are identical at any setting: every cell is
	// an isolated deterministic simulation and tables are assembled in
	// declaration order.
	Parallel int
	// Obs, if non-nil, attaches observability recorders to every
	// timing cell the experiment runs (histograms and/or trace
	// events); see ObsCollector and runCells.
	Obs *ObsCollector
}

// DefaultOpts returns sizes balancing fidelity against runtime; the CLI
// uses these, tests use smaller ones.
func DefaultOpts() Opts {
	return Opts{Transactions: 200, Warmup: 0, FootprintBytes: 8 << 20, Seed: 1}
}

func (o Opts) spec(base config.Config, wl string, scheme config.Scheme, txBytes, cores int) Spec {
	return Spec{
		Base:           base,
		Workload:       wl,
		Scheme:         scheme,
		TxBytes:        txBytes,
		Transactions:   o.Transactions,
		Warmup:         o.Warmup,
		Cores:          cores,
		FootprintBytes: o.FootprintBytes,
		Seed:           o.Seed,
	}
}

// runGrid runs the figures' cell grid through runCells: one cell per
// (workload, column), built by specAt, with the metrics returned by row
// and column.
func runGrid(o Opts, ncols int, specAt func(wl string, col int) Spec) ([][]stats.Metrics, error) {
	cells := make([]Spec, 0, len(workload.Names)*ncols)
	for _, wl := range workload.Names {
		for ci := 0; ci < ncols; ci++ {
			cells = append(cells, specAt(wl, ci))
		}
	}
	ms, _, err := o.runCells(cells, false)
	if err != nil {
		return nil, err
	}
	rows := make([][]stats.Metrics, len(workload.Names))
	for ri := range rows {
		rows[ri] = ms[ri*ncols : (ri+1)*ncols]
	}
	return rows, nil
}

// gridTable reads one metric of a runGrid result into a table, one row
// per workload.
func gridTable(title string, cols []string, rows [][]stats.Metrics, value func(stats.Metrics) float64) *stats.Table {
	t := stats.NewTable(title, cols...)
	for ri, wl := range workload.Names {
		row := make([]float64, len(cols))
		for ci := range cols {
			row[ci] = value(rows[ri][ci])
		}
		t.AddRow(wl, row...)
	}
	return t
}

const logRegionSize = 4 << 20 // per-program redo log region

// bankAssignment returns the first bank and bank count of a program's
// footprint. A single program spans a few adjacent banks ("continuous
// memory space … adjacent banks"); with multiple programs each owns one
// bank, so 8 programs keep all 8 banks busy — the paper's worst case
// for XBank (Section 5.1.2).
func bankAssignment(coreID, cores, banks, singleCoreBanks int) (first, n int) {
	if cores == 1 {
		n = singleCoreBanks
		if n <= 0 {
			n = 3
		}
		if n > banks/2 {
			n = banks / 2 // keep the XBank partner banks free
		}
		return 0, n
	}
	return coreID % banks, 1
}

// items derives the structure sizing from the footprint target.
func items(wl string, txBytes int, footprint uint64) int {
	var unit uint64
	switch wl {
	case "array":
		unit = uint64(txBytes / 2)
	default:
		unit = uint64(txBytes)
	}
	if unit < 64 {
		unit = 64
	}
	n := int(footprint / unit)
	if n < 16 {
		n = 16
	}
	return n
}

// warmupSteps picks a warmup that populates pointer structures to the
// footprint target when the caller didn't specify one. wl is the core's
// effective workload (CoreWorkloads may override Spec.Workload).
func warmupSteps(spec Spec, wl string) int {
	if spec.Warmup > 0 {
		return spec.Warmup
	}
	switch wl {
	case "btree", "rbtree", "hashtable":
		n := int(spec.FootprintBytes / uint64(spec.TxBytes))
		if n < 32 {
			n = 32
		}
		return n
	case "queue":
		return items(wl, spec.TxBytes, spec.FootprintBytes) / 2
	case "kv":
		// Setup preloads the whole keyspace; a short request burst warms
		// the caches and write queue before measurement.
		return 64
	case "ctrhammer":
		// Each warmup step spends one primed page; keep the warmup short
		// so Setup's priming budget goes to the measured detonations.
		return 8
	case "hotbank":
		return 8
	default: // array: Setup already populates; just warm the caches
		return 32
	}
}

// coreWorkload returns the workload core i runs: its CoreWorkloads
// entry, or Workload.
func (s Spec) coreWorkload(i int) string {
	if i < len(s.CoreWorkloads) && s.CoreWorkloads[i] != "" {
		return s.CoreWorkloads[i]
	}
	return s.Workload
}

// BuildSources records the per-core op streams for a spec, one packed
// stream per core (exported for the trace tool).
func BuildSources(spec Spec) ([]trace.Stream, error) {
	cfg := spec.config()
	layout := nvm.NewLayout(cfg)
	streams := make([]trace.Stream, spec.Cores)
	for i := 0; i < spec.Cores; i++ {
		wl := spec.coreWorkload(i)
		firstBank, nbanks := bankAssignment(i, spec.Cores, cfg.Banks, spec.SingleCoreBanks)
		// Size each bank's region generously: structures keep growing
		// past the footprint during the measured phase.
		perBank := spec.FootprintBytes*2 + 16<<20
		if max := layout.BankBytes - logRegionSize; perBank > max {
			perBank = max
		}
		// With multiple banks the redo log gets the first bank to
		// itself and the heap stripes the rest, so log and data writes
		// drain in parallel; a single-bank program shares it.
		var regions []alloc.Region
		heapStart := 1
		if nbanks == 1 {
			heapStart = 0
		}
		for j := heapStart; j < nbanks; j++ {
			base := layout.BankBase((firstBank+j)%cfg.Banks) + logRegionSize
			regions = append(regions, alloc.Region{Base: base, Size: perBank})
		}
		heap, err := alloc.NewHeap(regions...)
		if err != nil {
			return nil, fmt.Errorf("bench: core %d heap: %w", i, err)
		}
		p := workload.Params{
			Heap:    heap,
			TxBytes: spec.TxBytes,
			Items:   items(wl, spec.TxBytes, spec.FootprintBytes),
			// The paper workloads keep their historical additive per-core
			// offset so the pinned figure traces stay byte-stable; the kv
			// path below mixes (Seed, shard) properly via
			// workload.ShardSeed.
			Seed:   spec.Seed + int64(i)*7919,
			Attack: spec.Attack,
		}
		if wl == "kv" {
			// Shard i's stream must be a pure function of (Seed, i): the
			// workload derives its RNG from ShardSeed(Seed, Shard), so the
			// same shard regenerates identically at any shard count and
			// any build order.
			p.Seed = spec.Seed
			p.KV = spec.KV
			p.KV.Shard = i
		}
		w, err := workload.New(wl, p)
		if err != nil {
			return nil, fmt.Errorf("bench: core %d: %w", i, err)
		}
		b := pmem.NewTracingBackend()
		logBase := layout.BankBase(firstBank)
		tm := pmem.NewTxManager(b, logBase, logRegionSize)
		if err := w.Setup(tm); err != nil {
			return nil, fmt.Errorf("bench: core %d setup: %w", i, err)
		}
		tm.EnableMarkers(false)
		for s := 0; s < warmupSteps(spec, wl); s++ {
			if err := w.Step(tm); err != nil {
				return nil, fmt.Errorf("bench: core %d warmup step %d: %w", i, s, err)
			}
		}
		b.Mark(trace.Op{Kind: trace.Reset})
		tm.EnableMarkers(true)
		for s := 0; s < spec.Transactions; s++ {
			if err := w.Step(tm); err != nil {
				return nil, fmt.Errorf("bench: core %d step %d: %w", i, s, err)
			}
		}
		streams[i] = b.Stream()
	}
	return streams, nil
}

// Run executes one spec and returns its metrics.
func Run(spec Spec) (stats.Metrics, error) {
	m, _, err := RunWithBanks(spec)
	return m, err
}

// RunWithBanks is Run plus the per-bank busy-cycle breakdown — the
// direct view of the Figure 8 story: under WT+SingleBank the counter
// bank's busy share dwarfs every data bank's.
func RunWithBanks(spec Spec) (stats.Metrics, []nvm.BankStats, error) {
	streams, err := BuildSources(spec)
	if err != nil {
		return stats.Metrics{}, nil, err
	}
	sys, err := core.NewSystem(spec.config())
	if err != nil {
		return stats.Metrics{}, nil, err
	}
	m, err := sys.Run(replaySources(streams))
	if err != nil {
		return stats.Metrics{}, nil, err
	}
	return m, sys.BankStats(), nil
}

// schemeGrid runs every workload under each scheme at one transaction
// size and program count, and returns the scheme names as the column
// labels. Figures 13, 14 and 15 and the SCA and Osiris extensions read
// their tables off it.
func schemeGrid(base config.Config, o Opts, schemes []config.Scheme, txBytes, cores int) (cols []string, rows [][]stats.Metrics, err error) {
	for _, s := range schemes {
		cols = append(cols, s.String())
	}
	rows, err = runGrid(o, len(schemes), func(wl string, ci int) Spec {
		return o.spec(base, wl, schemes[ci], txBytes, cores)
	})
	return cols, rows, err
}

// Fig13 reproduces Figure 13: single-core transaction execution latency
// for the five workloads under the six schemes, at the given
// transaction request size. Cells are average transaction latency in
// cycles; print table.Normalize("Unsec") for the paper's presentation.
func Fig13(base config.Config, txBytes int, o Opts) (*stats.Table, error) {
	cols, rows, err := schemeGrid(base, o, config.AllSchemes(), txBytes, 1)
	if err != nil {
		return nil, fmt.Errorf("fig13 %w", err)
	}
	return gridTable(fmt.Sprintf("Figure 13: single-core tx latency, %dB transactions (cycles)", txBytes),
		cols, rows, stats.Metrics.AvgTxCycles), nil
}

// Fig14 reproduces Figure 14: multi-core transaction latency with the
// given number of programs (2, 4, or 8 in the paper) at 1 KB
// transactions.
func Fig14(base config.Config, programs int, o Opts) (*stats.Table, error) {
	cols, rows, err := schemeGrid(base, o, config.AllSchemes(), 1024, programs)
	if err != nil {
		return nil, fmt.Errorf("fig14 %w", err)
	}
	return gridTable(fmt.Sprintf("Figure 14: %d-program tx latency, 1KB transactions (cycles)", programs),
		cols, rows, stats.Metrics.AvgTxCycles), nil
}

// Fig15 reproduces Figure 15: the number of NVM write requests under
// each scheme, normalized to Unsec, at the given transaction size. It
// reads Figure 13's grid through TotalNVMWrites.
func Fig15(base config.Config, txBytes int, o Opts) (*stats.Table, error) {
	cols, rows, err := schemeGrid(base, o, config.AllSchemes(), txBytes, 1)
	if err != nil {
		return nil, fmt.Errorf("fig15 %w", err)
	}
	return gridTable(fmt.Sprintf("Figure 15: NVM writes, %dB transactions", txBytes), cols, rows,
		func(m stats.Metrics) float64 { return float64(m.TotalNVMWrites()) }).Normalize("Unsec"), nil
}

// Fig16 reproduces Figure 16: sensitivity to write queue length.
// The first table is the percentage of counter writes SuperMem removes
// relative to WT (16a); the second is SuperMem's average transaction
// latency (16b). Rows are workloads; columns are queue lengths.
func Fig16(base config.Config, o Opts) (reduction, latency *stats.Table, err error) {
	lengths := []int{8, 16, 32, 64, 128}
	cols := make([]string, len(lengths))
	for i, l := range lengths {
		cols[i] = fmt.Sprintf("wq%d", l)
	}
	// Each grid point needs a WT and a SuperMem run; interleave them as
	// adjacent cells so both replay the same cached trace.
	schemes := []config.Scheme{config.WT, config.SuperMem}
	rows, err := runGrid(o, 2*len(lengths), func(wl string, ci int) Spec {
		cfg := base
		cfg.WriteQueueEntries = lengths[ci/2]
		return o.spec(cfg, wl, schemes[ci%2], 1024, 1)
	})
	if err != nil {
		return nil, nil, fmt.Errorf("fig16 %w", err)
	}
	reduction = stats.NewTable("Figure 16a: % counter writes removed vs WT, by write queue length", cols...)
	latency = stats.NewTable("Figure 16b: SuperMem tx latency (cycles), by write queue length", cols...)
	for ri, wl := range workload.Names {
		redRow := make([]float64, len(lengths))
		latRow := make([]float64, len(lengths))
		for li := range lengths {
			wt, sm := rows[ri][2*li], rows[ri][2*li+1]
			if wt.CounterWrites > 0 {
				redRow[li] = 100 * (1 - float64(sm.CounterWrites)/float64(wt.CounterWrites))
			}
			latRow[li] = sm.AvgTxCycles()
		}
		reduction.AddRow(wl, redRow...)
		latency.AddRow(wl, latRow...)
	}
	return reduction, latency, nil
}

// Fig17 reproduces Figure 17: sensitivity to counter cache size.
// The first table is SuperMem's counter cache hit rate (17a); the
// second is execution time normalized to the 1 KB counter cache (17b).
func Fig17(base config.Config, o Opts) (hitRate, execTime *stats.Table, err error) {
	sizes := []int{1 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20}
	cols := []string{"1KB", "16KB", "64KB", "256KB", "1MB", "4MB"}
	rows, err := runGrid(o, len(sizes), func(wl string, ci int) Spec {
		cfg := base
		cfg.CounterCache.SizeBytes = sizes[ci]
		if sizes[ci] < 64*cfg.CounterCache.Ways {
			cfg.CounterCache.Ways = sizes[ci] / 64
		}
		return o.spec(cfg, wl, config.SuperMem, 1024, 1)
	})
	if err != nil {
		return nil, nil, fmt.Errorf("fig17 %w", err)
	}
	hitRate = gridTable("Figure 17a: counter cache hit rate, by counter cache size", cols, rows, stats.Metrics.CtrCacheHitRate)
	rawTime := gridTable("Figure 17b: execution time, by counter cache size", cols, rows,
		func(m stats.Metrics) float64 { return float64(m.Cycles) })
	return hitRate, rawTime.Normalize("1KB"), nil
}
