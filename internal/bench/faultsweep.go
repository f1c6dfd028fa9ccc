package bench

import (
	"bytes"
	"flag"
	"fmt"

	"supermem/internal/config"
	"supermem/internal/core"
	"supermem/internal/crash"
	"supermem/internal/fault"
	"supermem/internal/machine"
	"supermem/internal/obs"
	"supermem/internal/par"
)

// The faultsweep experiment crosses the deterministic fault injector
// with the crash fuzzer: seeded fault plans run against every machine
// mode under each ECC profile, through crash points (with a nested
// recovery crash), and each run's differential outcome is tallied. A
// separate timing cell drives the memory controller's read-retry and
// bank-quarantine path on the discrete-event simulator and reports the
// remap activity through both stats and the observability series.
//
// Everything is deterministic: the grid is a pure function of the
// options (seeds included), runs land in a pre-sized slice by index,
// and aggregation happens in grid order — so the result (and its JSON
// serialization) is byte-identical at any parallelism.

// FaultSweepECC lists the swept ECC profiles, strongest first.
func FaultSweepECC() []fault.ECCConfig {
	return []fault.ECCConfig{fault.ECCStrong(), fault.ECCSECDED(), fault.ECCOff()}
}

// FaultSweepOpts sizes the sweep. The zero value uses the defaults the
// CLI runs with.
type FaultSweepOpts struct {
	// Workloads are the crash-machine workloads swept (default array and
	// queue: one block-structured, one pointer-chasing with sub-line
	// logged writes).
	Workloads []string
	// Steps is the workload step count per run (default 8).
	Steps int
	// PlanSeeds generate one fault plan each (default {1, 2}); see
	// mediaPlan.
	PlanSeeds []int64
	// CrashPoints are the armed persist steps; negative means no crash.
	// Crashing points also arm a nested recovery crash at step 1.
	// Default {-1, 3, 6}.
	CrashPoints []int
}

func (o FaultSweepOpts) withDefaults() FaultSweepOpts {
	if len(o.Workloads) == 0 {
		o.Workloads = []string{"array", "queue"}
	}
	if o.Steps == 0 {
		o.Steps = 8
	}
	if len(o.PlanSeeds) == 0 {
		o.PlanSeeds = []int64{1, 2}
	}
	if len(o.CrashPoints) == 0 {
		o.CrashPoints = []int{-1, 3, 6}
	}
	return o
}

// FaultCell tallies one mode x ECC-profile cell of the sweep.
type FaultCell struct {
	Mode string `json:"mode"`
	ECC  string `json:"ecc"`
	// outcomes tallies the runs: workloads x plans x crash points.
	outcomes
	// TreeDetected counts runs where the integrity tree caught a
	// counter attack ECC classified clean (integrity-tree modes only).
	TreeDetected int `json:"tree_detected,omitempty"`
	// Injected sums the media injections that fired across the runs.
	Injected int `json:"injected"`
}

// QuarantineCell reports the timing-model resilience cell: a SuperMem
// simulation with a persistently failing bank that the controller must
// retry around, quarantine, and remap to the XBank partner.
type QuarantineCell struct {
	Workload         string `json:"workload"`
	Scheme           string `json:"scheme"`
	Cycles           uint64 `json:"cycles"`
	ReadRetries      uint64 `json:"read_retries"`
	UncorrectedReads uint64 `json:"uncorrected_reads"`
	BankRemaps       uint64 `json:"bank_remaps"`
	QuarantinedBanks uint64 `json:"quarantined_banks"`
	// ObsBankRemaps is the remap count summed from the observability
	// series — the same events BankRemaps counts, surfaced through the
	// recorder so traces and artifacts agree with the metrics.
	ObsBankRemaps uint64 `json:"obs_bank_remaps"`
}

// FaultSweepResult is the experiment's full report.
type FaultSweepResult struct {
	Cells      []FaultCell    `json:"cells"`
	Quarantine QuarantineCell `json:"quarantine"`
}

// outcomes tallies a fault grid's runs by differential outcome.
// FaultTreeDetected is counted into a field of the embedding cell, so
// each cell type keeps its own JSON tag for it.
type outcomes struct {
	Runs            int `json:"runs"`
	Clean           int `json:"clean"`
	Recovered       int `json:"recovered"`
	Detected        int `json:"detected"`
	Silent          int `json:"silent"`
	BaselineCorrupt int `json:"baseline_corrupt"`
}

// add counts one run with the given outcome; a tree detection goes to
// *treeDetected.
func (t *outcomes) add(o crash.FaultOutcome, treeDetected *int) {
	t.Runs++
	switch o {
	case crash.FaultClean:
		t.Clean++
	case crash.FaultRecovered:
		t.Recovered++
	case crash.FaultDetected:
		t.Detected++
	case crash.FaultSilent:
		t.Silent++
	case crash.FaultBaselineCorrupt:
		t.BaselineCorrupt++
	case crash.FaultTreeDetected:
		(*treeDetected)++
	}
}

// faultRun is one flattened point of a fault grid: a crash-machine run
// injecting plan under ecc, crashing at persist step crashAt (negative:
// no crash).
type faultRun struct {
	cell     int // index of the cell the run is tallied into
	mode     machine.Mode
	workload string
	plan     fault.Plan
	ecc      fault.ECCConfig
	crashAt  int
}

// runFaultGrid runs every point through crash.RunFault at seed 7 for
// steps workload steps, and returns the results in run order. An armed
// crash also arms a nested crash at recovery step 1. Plans are only
// read, so runs may share one.
func runFaultGrid(runs []faultRun, steps, parallel int) ([]crash.FaultResult, error) {
	results := make([]crash.FaultResult, len(runs))
	err := par.ForEachIndex(parallel, len(runs), func(i int) error {
		r := runs[i]
		recoveryCrashAt := -1
		if r.crashAt >= 0 {
			recoveryCrashAt = 1
		}
		p := crash.Params{Mode: r.mode, Workload: r.workload, Steps: steps, Seed: 7}
		res, err := crash.RunFault(p, r.plan, r.ecc, r.crashAt, recoveryCrashAt)
		if err != nil {
			return fmt.Errorf("%v/%s %s seed=%d crash@%d: %w", r.mode, r.ecc.Name, r.workload, r.plan.Seed, r.crashAt, err)
		}
		results[i] = res
		return nil
	})
	return results, err
}

// mediaPlan generates the seeded media-fault plan of the fault sweep and
// the attack's crash loop: two single-bit flips, a stuck-at, a torn
// write and a counter fault within 24 persist steps.
func mediaPlan(seed int64) (fault.Plan, error) {
	return fault.Generate(fault.PlanConfig{
		Seed: seed, Steps: 24,
		BitFlips: 2, StuckAts: 1, TornWrites: 1, CtrFaults: 1, FlipBitsMax: 1,
	})
}

// arrayCell is the one-core timing cell of the quarantine cell and the
// integrity grid: array, 1 KB transactions after 8 warmup ones, a 1 MiB
// footprint, seed 1.
func arrayCell(base config.Config, scheme config.Scheme, transactions int) Spec {
	o := Opts{Transactions: transactions, Warmup: 8, FootprintBytes: 1 << 20, Seed: 1}
	return o.spec(base, "array", scheme, 1024, 1)
}

// faultSweepExperiment is the registry entry; -fault-seed picks the
// plan seeds.
func faultSweepExperiment() Experiment {
	var seed int64
	return Experiment{
		Name:  "faultsweep",
		Claim: "zero silent corruptions under strong ECC; failing bank quarantined and remapped",
		Flags: func(fs *flag.FlagSet) {
			fs.Int64Var(&seed, "fault-seed", 0, "base seed for the faultsweep's generated plans (0 = default)")
		},
		Run: func(cfg config.Config, o Opts) (Result, error) {
			var fo FaultSweepOpts
			if seed != 0 {
				fo.PlanSeeds = []int64{seed, seed + 1}
			}
			return FaultSweep(cfg, o, fo)
		},
	}
}

// FaultSweep runs the full fault x crash x ECC grid across o.Parallel
// workers, plus the bank quarantine timing cell on the base template
// (observed by o.Obs). The grid and the cell keep their own fixed
// sizing; o's sizing knobs do not apply.
func FaultSweep(base config.Config, o Opts, fo FaultSweepOpts) (*FaultSweepResult, error) {
	fo = fo.withDefaults()
	profiles := FaultSweepECC()

	var plans []fault.Plan
	for _, seed := range fo.PlanSeeds {
		plan, err := mediaPlan(seed)
		if err != nil {
			return nil, err
		}
		plans = append(plans, plan)
	}
	// Flatten the grid in a fixed order: cells are mode-major, profile
	// minor; runs within a cell are workload x plan x crash point.
	cells := make([]FaultCell, 0, len(crash.AllModes)*len(profiles))
	var runs []faultRun
	for _, mode := range crash.AllModes {
		for _, ecc := range profiles {
			ci := len(cells)
			cells = append(cells, FaultCell{Mode: mode.String(), ECC: ecc.Name})
			for _, wl := range fo.Workloads {
				for _, plan := range plans {
					for _, crashAt := range fo.CrashPoints {
						runs = append(runs, faultRun{cell: ci, mode: mode, workload: wl, plan: plan, ecc: ecc, crashAt: crashAt})
					}
				}
			}
		}
	}
	results, err := runFaultGrid(runs, fo.Steps, o.Parallel)
	if err != nil {
		return nil, fmt.Errorf("faultsweep %w", err)
	}
	// Aggregate in grid order so the tallies (and JSON) are independent
	// of worker scheduling.
	for i, r := range runs {
		c := &cells[r.cell]
		c.add(results[i].Outcome, &c.TreeDetected)
		c.Injected += results[i].Stats.Injected
	}

	q, err := quarantineCell(base, o)
	if err != nil {
		return nil, err
	}
	return &FaultSweepResult{Cells: cells, Quarantine: q}, nil
}

// quarantineCell runs the timing-model resilience cell: bank 0 fails
// every access, so reads retry with backoff until the controller
// quarantines the bank and remaps to its XBank partner; a latency
// spike window on another bank stretches service times without
// failing. The cell must complete — the assertion is that a dead bank
// degrades the simulation instead of wedging it. It builds its own
// system, since runCells has no way to attach the bank faults, but
// takes its recorder the way runCells' cells do.
func quarantineCell(base config.Config, o Opts) (QuarantineCell, error) {
	cfg := base
	cfg.ReadRetryLimit = 3
	cfg.ReadRetryBackoff = 16
	cfg.BankQuarantineThreshold = 4

	spec := arrayCell(cfg, config.SuperMem, 50)
	streams, err := BuildSources(spec)
	if err != nil {
		return QuarantineCell{}, err
	}
	sys, err := core.NewSystem(spec.config())
	if err != nil {
		return QuarantineCell{}, err
	}
	recs, captures := o.recorders([]Spec{spec}, true)
	rec := recs[0]
	sys.SetRecorder(rec)
	plan := fault.Plan{Injections: []fault.Injection{
		// Bank 0 fails every access for the whole run.
		{Kind: fault.BankFault, Step: 0, Target: 0, Arg: 1 << 30},
		// Bank 2 takes a 300-cycle latency spike for 64 accesses.
		{Kind: fault.BankLatency, Step: 16, Target: 2, Arg: 64 | 300<<32},
	}}
	sys.SetBankFaults(fault.NewBankFaults(plan, cfg.Banks))
	m, err := sys.Run(replaySources(streams))
	if err != nil {
		return QuarantineCell{}, err
	}
	o.Obs.collect(captures)
	return QuarantineCell{
		Workload:         spec.Workload,
		Scheme:           spec.Scheme.String(),
		Cycles:           m.Cycles,
		ReadRetries:      m.ReadRetries,
		UncorrectedReads: m.UncorrectedReads,
		BankRemaps:       m.BankRemaps,
		QuarantinedBanks: m.QuarantinedBanks,
		ObsBankRemaps:    sumSeries(rec, obs.SeriesBankRemaps),
	}, nil
}

// StrictViolations returns the no-silent-corruption violations -strict
// fails on: any Silent outcome in a cell whose ECC profile detects
// unboundedly ("strong"), or a quarantine cell that never remapped. An
// empty slice means the headline claim held.
func (r *FaultSweepResult) StrictViolations() []string {
	var v []string
	for _, c := range r.Cells {
		if c.ECC == "strong" && c.Silent > 0 {
			v = append(v, fmt.Sprintf("%s/%s: %d silent corruption(s) with strong ECC", c.Mode, c.ECC, c.Silent))
		}
	}
	if r.Quarantine.QuarantinedBanks == 0 {
		v = append(v, "quarantine cell: failing bank was never quarantined")
	}
	if r.Quarantine.BankRemaps == 0 {
		v = append(v, "quarantine cell: no accesses were remapped")
	}
	if r.Quarantine.BankRemaps != r.Quarantine.ObsBankRemaps {
		v = append(v, fmt.Sprintf("quarantine cell: stats count %d remaps but obs series %d",
			r.Quarantine.BankRemaps, r.Quarantine.ObsBankRemaps))
	}
	return v
}

// String renders the sweep as an aligned report.
func (r *FaultSweepResult) String() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "Fault sweep: differential fault x crash outcomes per mode and ECC profile\n")
	fmt.Fprintf(&b, "%-16s %-8s %6s %6s %10s %9s %7s %9s %5s %9s\n",
		"mode", "ecc", "runs", "clean", "recovered", "detected", "silent", "baseline", "tree", "injected")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "%-16s %-8s %6d %6d %10d %9d %7d %9d %5d %9d\n",
			c.Mode, c.ECC, c.Runs, c.Clean, c.Recovered, c.Detected, c.Silent, c.BaselineCorrupt, c.TreeDetected, c.Injected)
	}
	q := r.Quarantine
	fmt.Fprintf(&b, "\nBank quarantine cell (%s/%s, bank 0 dead, spike on bank 2):\n", q.Workload, q.Scheme)
	fmt.Fprintf(&b, "  cycles=%d read_retries=%d uncorrected=%d quarantined_banks=%d bank_remaps=%d (obs %d)\n",
		q.Cycles, q.ReadRetries, q.UncorrectedReads, q.QuarantinedBanks, q.BankRemaps, q.ObsBankRemaps)
	return b.String()
}
