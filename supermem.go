// Package supermem is a Go reproduction of "SuperMem: Enabling
// Application-transparent Secure Persistent Memory with Low Overheads"
// (MICRO 2019). It provides:
//
//   - a discrete-event timing simulator of an encrypted, crash-consistent
//     NVM system — CPU caches, a counter cache (write-through or
//     write-back), an AES one-time-pad engine, a banked PCM device, and a
//     memory controller with the paper's counter write coalescing (CWC)
//     and cross-bank counter placement (XBank);
//   - a byte-accurate functional machine whose NVM contents really are
//     encrypted under split counters, for crash/recovery experiments;
//   - the evaluation's five workloads (array, queue, B+tree, hash table,
//     red-black tree) as real persistent data structures over a durable
//     redo-log transaction layer;
//   - runners that regenerate every figure and table of the paper's
//     evaluation.
//
// Quick start:
//
//	cfg := supermem.DefaultConfig()                  // Table 2
//	res, err := supermem.Simulate(supermem.RunSpec{
//	        Config:   cfg,
//	        Workload: "hashtable",
//	        Scheme:   supermem.SuperMem,
//	        TxBytes:  1024,
//	})
//	fmt.Println(res.AvgTxCycles(), res.TotalNVMWrites())
//
// See cmd/supermem-bench for the figure/table CLI and the examples
// directory for runnable programs.
package supermem

import (
	"io"
	"slices"

	"supermem/internal/bench"
	"supermem/internal/config"
	"supermem/internal/crash"
	"supermem/internal/fault"
	"supermem/internal/machine"
	"supermem/internal/nvm"
	"supermem/internal/obs"
	"supermem/internal/stats"
	"supermem/internal/workload"
)

// Re-exported configuration types. Config is the full system
// configuration (Table 2 by default); Scheme selects the secure-NVM
// design under evaluation.
type (
	// Config is the simulated system configuration.
	Config = config.Config
	// CacheConfig describes one set-associative cache.
	CacheConfig = config.CacheConfig
	// Scheme identifies a secure-NVM design.
	Scheme = config.Scheme
	// Placement identifies a counter-line placement policy (Figure 8).
	Placement = config.Placement
	// Metrics holds the measured results of one simulation run.
	Metrics = stats.Metrics
	// Table is a printable result table (one per paper figure).
	Table = stats.Table
)

// The evaluated schemes, in the paper's figure order.
const (
	// Unsec is the un-encrypted baseline NVM.
	Unsec = config.Unsec
	// WB is the ideal battery-backed write-back counter cache — the
	// optimal performance of an encrypted NVM.
	WB = config.WB
	// WT is the baseline write-through counter cache.
	WT = config.WT
	// WTCWC is WT plus counter write coalescing.
	WTCWC = config.WTCWC
	// WTXBank is WT plus cross-bank counter storage.
	WTXBank = config.WTXBank
	// SuperMem is the paper's design: WT + CWC + XBank.
	SuperMem = config.SuperMem
	// SCA is this repository's extra baseline: selective counter
	// atomicity (write-back counters persisted atomically only on
	// explicit flushes), approximating Liu et al.'s design.
	SCA = config.SCA
	// Osiris is this repository's relaxed counter-persistence baseline
	// (Ye et al.): counters enqueue only every stop-loss-th update, and
	// post-crash recovery probes candidate counters against per-line
	// integrity tags.
	Osiris = config.Osiris
)

// Counter placement policies (Figure 8).
const (
	// SingleBank stores all counters in one bank.
	SingleBank = config.SingleBank
	// SameBank stores each counter in its data's bank.
	SameBank = config.SameBank
	// XBank stores the counter of bank X's data in bank (X+N/2) mod N.
	XBank = config.XBank
)

// Core timing models (Config.CoreModel / Config.CoreModels).
const (
	// CoreInOrder is the blocking one-memory-op-at-a-time core model
	// (the default; the paper's evaluation setup).
	CoreInOrder = config.CoreInOrder
	// CoreOoO is the out-of-order core model: a configurable-width
	// issue window over an MSHR file, with an optional stride
	// prefetcher. Timing-only — the executed op streams are unchanged.
	CoreOoO = config.CoreOoO
)

// DefaultConfig returns the paper's Table 2 configuration.
func DefaultConfig() Config { return config.Default() }

// Schemes lists the paper's evaluated schemes in figure order.
func Schemes() []Scheme { return config.AllSchemes() }

// ExtendedSchemes adds this repository's extra baselines (SCA, Osiris,
// and the integrity-tree designs BMT, Triad-NVM, Phoenix) to the
// paper's scheme list.
func ExtendedSchemes() []Scheme { return config.ExtendedSchemes() }

// Workloads lists the evaluation's workload names in figure order.
func Workloads() []string { return slices.Clone(workload.Names) }

// RunSpec describes one simulation run: a workload executing durable
// transactions on a secure-NVM system.
type RunSpec struct {
	// Config is the system configuration; use DefaultConfig for the
	// paper's Table 2. The scheme and core count fields are overridden
	// by the spec.
	Config Config
	// Workload is one of Workloads().
	Workload string
	// Scheme is the secure-NVM design to simulate.
	Scheme Scheme
	// TxBytes is the transaction request size (the paper sweeps 256,
	// 1024, 4096).
	TxBytes int
	// Transactions is the measured transaction count per core
	// (default 200).
	Transactions int
	// Warmup overrides the unmeasured warmup transaction count
	// (default: enough to populate the structure to the footprint).
	Warmup int
	// Cores is the number of programs (default 1).
	Cores int
	// FootprintBytes is the per-program data footprint target
	// (default 8 MiB).
	FootprintBytes uint64
	// Seed drives the deterministic workload randomness (default 1).
	Seed int64
}

func (s RunSpec) withDefaults() RunSpec {
	if s.Config.Banks == 0 {
		s.Config = config.Default()
	}
	if s.Workload == "" {
		s.Workload = "array"
	}
	if s.TxBytes == 0 {
		s.TxBytes = 1024
	}
	if s.Transactions == 0 {
		s.Transactions = 200
	}
	if s.Cores == 0 {
		s.Cores = 1
	}
	if s.FootprintBytes == 0 {
		s.FootprintBytes = 8 << 20
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// Simulate runs one workload/scheme combination and returns its
// metrics. Runs are deterministic: the same spec always yields the same
// metrics.
func Simulate(spec RunSpec) (Metrics, error) {
	m, _, err := SimulateWithBanks(spec)
	return m, err
}

// BankStats reports one NVM bank's activity over a run.
type BankStats = nvm.BankStats

// SimulateWithBanks is Simulate plus the per-bank busy breakdown, which
// makes the counter-bank bottleneck of Figure 8 directly visible.
func SimulateWithBanks(spec RunSpec) (Metrics, []BankStats, error) {
	spec = spec.withDefaults()
	return bench.RunWithBanks(bench.Spec{
		Base:           spec.Config,
		Workload:       spec.Workload,
		Scheme:         spec.Scheme,
		TxBytes:        spec.TxBytes,
		Transactions:   spec.Transactions,
		Warmup:         spec.Warmup,
		Cores:          spec.Cores,
		FootprintBytes: spec.FootprintBytes,
		Seed:           spec.Seed,
	})
}

// ExperimentOpts sizes the figure reproductions. The zero value uses
// the defaults of DefaultExperimentOpts.
type ExperimentOpts struct {
	Transactions   int
	Warmup         int
	FootprintBytes uint64
	Seed           int64
	// Parallel is the number of simulation cells run concurrently
	// (<= 0 means GOMAXPROCS). Every cell is an isolated deterministic
	// simulation, so results are byte-identical at any setting.
	Parallel int
	// Obs, if non-nil, attaches observability recorders (latency
	// histograms and/or a trace_event capture) to the figure's cells.
	// Recorders are handled in cell order, so observed output is
	// byte-identical at any Parallel setting too.
	Obs *ObsCollector
}

// DefaultExperimentOpts returns the sizing the CLI uses.
func DefaultExperimentOpts() ExperimentOpts {
	o := bench.DefaultOpts()
	return ExperimentOpts{Transactions: o.Transactions, Warmup: o.Warmup, FootprintBytes: o.FootprintBytes, Seed: o.Seed}
}

func (o ExperimentOpts) internal() bench.Opts {
	d := bench.DefaultOpts()
	if o.Transactions > 0 {
		d.Transactions = o.Transactions
	}
	if o.Warmup > 0 {
		d.Warmup = o.Warmup
	}
	if o.FootprintBytes > 0 {
		d.FootprintBytes = o.FootprintBytes
	}
	if o.Seed != 0 {
		d.Seed = o.Seed
	}
	d.Parallel = o.Parallel
	d.Obs = o.Obs
	return d
}

// Observability re-exports (see internal/obs): windowed series of
// write-queue occupancy / bank busy / counter-cache hit rate, latency
// histograms with p50/p95/p99, and a Chrome trace_event exporter whose
// output opens in Perfetto (ui.perfetto.dev) or chrome://tracing.
type (
	// ObsCollector attaches per-cell recorders to figure runs; set
	// ExperimentOpts.Obs to one.
	ObsCollector = bench.ObsCollector
	// CellObs is one cell's collected observability (label, sizing,
	// histogram snapshot, recorder).
	CellObs = bench.CellObs
	// ObsRecorder gathers one simulation's series, histograms, and
	// trace events; nil is a valid always-disabled recorder.
	ObsRecorder = obs.Recorder
	// ObsOptions configures a recorder (window, trace buffering).
	ObsOptions = obs.Options
	// ObsSnapshot summarises a recorder's latency histograms.
	ObsSnapshot = obs.Snapshot
	// HistSnapshot is one histogram's count/min/max/mean/p50/p95/p99.
	HistSnapshot = obs.HistSnapshot
	// TraceSection names one recorder's events within a trace file.
	TraceSection = obs.TraceSection
	// TraceSummary reports a parsed trace's event counts by phase and
	// name.
	TraceSummary = obs.TraceSummary
)

// NewObsRecorder builds a recorder for direct Simulate-style use.
func NewObsRecorder(o ObsOptions) *ObsRecorder { return obs.NewRecorder(o) }

// WriteTrace serializes the sections' buffered events (plus counter
// tracks derived from their series) as Chrome trace_event JSON.
func WriteTrace(w io.Writer, sections ...TraceSection) error {
	return obs.WriteTrace(w, sections...)
}

// ReadTraceSummary parses and validates a trace_event JSON document.
func ReadTraceSummary(r io.Reader) (TraceSummary, error) { return obs.ReadTraceSummary(r) }

// Figure13 reproduces Figure 13 (single-core transaction latency per
// scheme) at the given transaction size; normalize the table to "Unsec"
// for the paper's presentation.
func Figure13(cfg Config, txBytes int, o ExperimentOpts) (*Table, error) {
	return bench.Fig13(cfg, txBytes, o.internal())
}

// Figure14 reproduces Figure 14 (multi-program transaction latency) for
// the given program count (2, 4, or 8 in the paper).
func Figure14(cfg Config, programs int, o ExperimentOpts) (*Table, error) {
	return bench.Fig14(cfg, programs, o.internal())
}

// Figure15 reproduces Figure 15 (NVM write counts normalized to Unsec)
// at the given transaction size.
func Figure15(cfg Config, txBytes int, o ExperimentOpts) (*Table, error) {
	return bench.Fig15(cfg, txBytes, o.internal())
}

// Figure16 reproduces Figure 16 (sensitivity to write queue length):
// the percentage of counter writes removed versus WT, and SuperMem's
// transaction latency.
func Figure16(cfg Config, o ExperimentOpts) (reduction, latency *Table, err error) {
	return bench.Fig16(cfg, o.internal())
}

// Figure17 reproduces Figure 17 (sensitivity to counter cache size):
// counter cache hit rate and normalized execution time.
func Figure17(cfg Config, o ExperimentOpts) (hitRate, execTime *Table, err error) {
	return bench.Fig17(cfg, o.internal())
}

// Table1 reproduces Table 1: the recoverability of a durable
// transaction when a crash strikes each commit stage, across machine
// designs, by sweeping every crash point on the byte-accurate machine.
func Table1() (*bench.Table1Result, error) { return bench.Table1() }

// CrashMode selects the persistence design of the byte-accurate crash
// machine (richer than Scheme: it distinguishes battery variants and
// the register ablation).
type CrashMode = machine.Mode

// Crash machine designs.
const (
	// CrashUnencrypted stores plaintext (crash-consistency baseline).
	CrashUnencrypted = machine.Unencrypted
	// CrashSuperMem is the paper's design: write-through counters with
	// the atomic-append register.
	CrashSuperMem = machine.WTRegister
	// CrashNoRegister is the Figure 6 strawman: write-through without
	// the register.
	CrashNoRegister = machine.WTNoRegister
	// CrashWBBattery is the ideal battery-backed write-back cache.
	CrashWBBattery = machine.WBBattery
	// CrashWBNoBattery is a write-back cache that loses its counters on
	// power failure.
	CrashWBNoBattery = machine.WBNoBattery
	// CrashOsiris relaxes counter persistence and recovers lost
	// counters after a crash by probing against per-line integrity
	// tags (the related-work alternative whose recovery cost scales
	// with memory size).
	CrashOsiris = machine.Osiris
)

// CrashModes lists every machine design the differential crash fuzzer
// sweeps, in Table 1 order plus the baselines.
func CrashModes() []CrashMode { return append([]CrashMode(nil), crash.AllModes...) }

// Differential crash-fuzzer types (see internal/crash for the full
// field documentation).
type (
	// CrashFuzzParams configures a differential fuzzing run: workload,
	// sizing, sampling budget and seed, nested-crash depth, and how
	// many modes are fuzzed at once. The zero value fuzzes the array
	// workload exhaustively across all modes.
	CrashFuzzParams = crash.FuzzParams
	// CrashFuzzResult is the mode-by-mode differential matrix checked
	// against Table 1's expected recoverability.
	CrashFuzzResult = crash.FuzzResult
	// CrashModeVerdict is one machine design's verdict within a
	// differential fuzz: points tested, failures, and the minimized
	// earliest failing crash point with its divergent lines.
	CrashModeVerdict = crash.ModeVerdict
)

// CrashFuzz runs the differential crash-point fuzzer: every sampled
// crash point (and, when requested, nested crashes inside the recovery
// path itself) is executed across all machine modes and each mode's
// verdict is compared against Table 1's expected recoverability.
// Results are deterministic for a fixed seed at any parallelism.
func CrashFuzz(p CrashFuzzParams) (*CrashFuzzResult, error) { return crash.Fuzz(p) }

// CrashReferenceRun executes a crash-free run of the workload on the
// byte-accurate machine with an observability recorder attached (nil is
// fine) and returns the persist-step count of each transaction. The
// recorder's timeline is the persist-step index, and RSR re-encryption
// spans appear when the mode performs them (e.g. Osiris recovery).
func CrashReferenceRun(mode CrashMode, workloadName string, steps int, rec *ObsRecorder) ([]int, error) {
	return crash.ReferenceRun(crash.Params{Mode: mode, Workload: workloadName, Steps: steps}, rec)
}

// CrashExpectedConsistent reports Table 1's recoverability expectation
// for a mode running a workload (WBNoBattery always corrupts; the
// register-less write-through strawman corrupts exactly when the
// workload performs sub-line logged writes).
func CrashExpectedConsistent(mode CrashMode, workloadName string) bool {
	return crash.ExpectedConsistent(mode, workloadName)
}

// Deterministic NVM fault injection (see internal/fault): seeded plans
// corrupt persisted lines (bit flips, stuck-at cells, torn 64 B
// writes), counter lines, and the timing model's banks; a per-line ECC
// metadata model classifies every corrupted read as corrected,
// detected, or silent.
type (
	// FaultPlan is a deterministic injection schedule.
	FaultPlan = fault.Plan
	// FaultInjection is one scheduled fault within a plan.
	FaultInjection = fault.Injection
	// FaultPlanConfig sizes a generated plan (seed included).
	FaultPlanConfig = fault.PlanConfig
	// ECCConfig models per-line error-correction strength.
	ECCConfig = fault.ECCConfig
	// FaultStats counts injector fires and ECC read classifications.
	FaultStats = fault.Stats
	// FaultResult is one fault x crash experiment's differential report.
	FaultResult = crash.FaultResult
	// FaultOutcome classifies a fault x crash experiment (Clean /
	// Recovered / Detected / Silent / BaselineCorrupt).
	FaultOutcome = crash.FaultOutcome
)

// ECC profiles, strongest detection last.
var (
	// ECCOff disables the model: corruption flows through silently.
	ECCOff = fault.ECCOff
	// ECCSECDED is single-error-correct / double-error-detect. Note a
	// torn write exceeds its detection radius and goes Silent.
	ECCSECDED = fault.ECCSECDED
	// ECCStrong corrects single bits and detects any wider corruption
	// (a line-MAC profile); no fault may go silent under it.
	ECCStrong = fault.ECCStrong
)

// GenerateFaultPlan derives a plan from the config: the same config
// (seed included) always yields the identical schedule.
func GenerateFaultPlan(c FaultPlanConfig) (FaultPlan, error) { return fault.Generate(c) }

// RunFault executes a workload on the byte-accurate crash machine with
// the plan's media faults injected under the given ECC profile, a
// crash armed at crashAt (negative: none) and a nested recovery crash
// at recoveryCrashAt, then classifies the outcome differentially
// against the fault-free baseline at the same crash point.
func RunFault(mode CrashMode, workloadName string, steps int, plan FaultPlan, ecc ECCConfig, crashAt, recoveryCrashAt int) (FaultResult, error) {
	return crash.RunFault(crash.Params{Mode: mode, Workload: workloadName, Steps: steps}, plan, ecc, crashAt, recoveryCrashAt)
}
