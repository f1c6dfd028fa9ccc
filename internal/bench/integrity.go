package bench

import (
	"bytes"
	"fmt"

	"supermem/internal/config"
	"supermem/internal/fault"
	"supermem/internal/machine"
)

// The integrity experiment measures what the integrity-tree schemes
// buy and what they cost, against the treeless write-through baseline:
//
//   - Detection: a counter-rollback + counter-corruption plan runs
//     against every tree mode across crash points (with a nested
//     recovery crash); the grid tallies the differential outcomes —
//     replays must land Detected-by-tree, never Silent.
//   - Write amplification: timing-model runs count the tree-node
//     writes each persistence level adds per counter persist, and how
//     many the Streamlining-style combining buffer absorbs.
//   - Recovery time: the byte-accurate machine reports the node
//     recomputations recovery spends per persistence level (one root
//     check under full persistence, an interior rebuild under
//     leaves-only) plus the persisted tree bytes that difference rides
//     on.
//
// Everything is deterministic: grids are pure functions of the
// options, runs land in pre-sized slices by index, and aggregation is
// grid-ordered — byte-identical at any parallelism.

// IntegrityOpts sizes the integrity experiment. The zero value is the
// CLI default.
type IntegrityOpts struct {
	// Workloads are the crash-machine workloads swept (default array
	// and queue).
	Workloads []string
	// Steps is the workload step count per run (default 8).
	Steps int
	// CrashPoints are the armed persist steps; negative means none.
	// Crashing points also arm a nested recovery crash at step 1.
	// Default {-1, 3, 6}.
	CrashPoints []int
	// Transactions sizes the timing cells (default 200).
	Transactions int
}

func (o IntegrityOpts) withDefaults() IntegrityOpts {
	if len(o.Workloads) == 0 {
		o.Workloads = []string{"array", "queue"}
	}
	if o.Steps == 0 {
		o.Steps = 8
	}
	if len(o.CrashPoints) == 0 {
		o.CrashPoints = []int{-1, 3, 6}
	}
	if o.Transactions == 0 {
		o.Transactions = 200
	}
	return o
}

// integrityModes lists the detection grid's machine modes: the
// treeless baseline first, then the tree designs in registry order.
func integrityModes() []machine.Mode {
	return []machine.Mode{machine.WTRegister, machine.BMTFull, machine.BMTLeaves, machine.Phoenix}
}

// IntegritySchemes lists the timing grid's schemes: the write-through
// baseline and the three tree designs.
func IntegritySchemes() []config.Scheme {
	return []config.Scheme{config.WT, config.BMT, config.TriadNVM, config.Phoenix}
}

// IntegrityCell tallies one mode's detection grid: workloads x crash
// points under strong ECC against the counter-attack plan.
type IntegrityCell struct {
	Mode string `json:"mode"`
	// outcomes tallies the runs: workloads x crash points.
	outcomes
	TreeDetected int `json:"tree_detected"`
	// Replays/TreeFlags sum the injected counter rollbacks and the
	// tree detections they triggered across the runs.
	Replays   int `json:"replays"`
	TreeFlags int `json:"tree_flags"`
	// RecoveryHashes sums the node recomputations recovery performed —
	// the recovery-time cost of the mode's tree-persistence level.
	RecoveryHashes uint64 `json:"recovery_hashes"`
	// TreeBytes is the largest persisted tree snapshot observed.
	TreeBytes int `json:"tree_bytes"`
}

// IntegrityTimingCell reports one scheme's timing-model run: the
// tree's write amplification on the discrete-event simulator.
type IntegrityTimingCell struct {
	Scheme        string `json:"scheme"`
	Workload      string `json:"workload"`
	Cycles        uint64 `json:"cycles"`
	DataWrites    uint64 `json:"data_writes"`
	CounterWrites uint64 `json:"counter_writes"`
	TreeWrites    uint64 `json:"tree_writes"`
	TreeCoalesced uint64 `json:"tree_coalesced"`
}

// WriteAmplification is NVM writes per data write — the Figure 15
// metric with the tree traffic included.
func (c IntegrityTimingCell) WriteAmplification() float64 {
	if c.DataWrites == 0 {
		return 0
	}
	return float64(c.DataWrites+c.CounterWrites) / float64(c.DataWrites)
}

// IntegrityResult is the experiment's full report.
type IntegrityResult struct {
	Cells  []IntegrityCell       `json:"cells"`
	Timing []IntegrityTimingCell `json:"timing"`
}

// integrityAttackPlan is the counter-targeted plan the detection grid
// fires: a rollback to the previously persisted counter line (valid
// ECC — invisible to the ECC model) plus an in-place corruption.
func integrityAttackPlan() fault.Plan {
	return fault.Plan{Injections: []fault.Injection{
		{Kind: fault.CtrReplay, Step: 3, Target: 0},
		{Kind: fault.CtrCorrupt, Step: 5, Target: 1, Arg: 3 | 21<<8},
	}}
}

// IntegritySweep runs the detection grid and the timing cells across
// o.Parallel workers, the timing cells on the base template (observed
// by o.Obs). Both keep their own sizing; o's sizing knobs do not apply.
func IntegritySweep(base config.Config, o Opts, iopt IntegrityOpts) (*IntegrityResult, error) {
	iopt = iopt.withDefaults()

	cells := make([]IntegrityCell, 0, len(integrityModes()))
	plan := integrityAttackPlan()
	var runs []faultRun
	for _, mode := range integrityModes() {
		ci := len(cells)
		cells = append(cells, IntegrityCell{Mode: mode.String()})
		for _, wl := range iopt.Workloads {
			for _, crashAt := range iopt.CrashPoints {
				runs = append(runs, faultRun{cell: ci, mode: mode, workload: wl, plan: plan, ecc: fault.ECCStrong(), crashAt: crashAt})
			}
		}
	}
	results, err := runFaultGrid(runs, iopt.Steps, o.Parallel)
	if err != nil {
		return nil, fmt.Errorf("integrity %w", err)
	}
	for i, r := range runs {
		c := &cells[r.cell]
		c.add(results[i].Outcome, &c.TreeDetected)
		c.Replays += results[i].Stats.CtrReplays
		c.TreeFlags += results[i].Stats.CtrTreeDetected
		c.RecoveryHashes += results[i].TreeStats.RecoveryHashes
		if results[i].TreeBytes > c.TreeBytes {
			c.TreeBytes = results[i].TreeBytes
		}
	}

	timing, err := integrityTiming(base, o, iopt.Transactions)
	if err != nil {
		return nil, err
	}
	return &IntegrityResult{Cells: cells, Timing: timing}, nil
}

// integrityTiming runs one timing cell per scheme: the same workload
// under the same configuration, differing only in the scheme — so the
// tree-write columns are directly comparable, and the cells replay one
// recording.
func integrityTiming(base config.Config, o Opts, transactions int) ([]IntegrityTimingCell, error) {
	schemes := IntegritySchemes()
	cells := make([]Spec, len(schemes))
	for i, s := range schemes {
		cells[i] = arrayCell(base, s, transactions)
	}
	ms, _, err := o.runCells(cells, false)
	if err != nil {
		return nil, fmt.Errorf("integrity timing %w", err)
	}
	out := make([]IntegrityTimingCell, len(cells))
	for i, m := range ms {
		out[i] = IntegrityTimingCell{
			Scheme:        schemes[i].String(),
			Workload:      cells[i].Workload,
			Cycles:        m.Cycles,
			DataWrites:    m.DataWrites,
			CounterWrites: m.CounterWrites,
			TreeWrites:    m.TreeNodeWrites,
			TreeCoalesced: m.TreeCoalescedWrites,
		}
	}
	return out, nil
}

// StrictViolations returns the detection-property violations -strict
// fails on: any Silent outcome, any integrity mode whose fired
// replays were never tree-flagged, or tree traffic missing from a
// tree scheme's timing cell. Empty means the tentpole claim held.
func (r *IntegrityResult) StrictViolations() []string {
	var v []string
	for _, c := range r.Cells {
		if c.Silent > 0 {
			v = append(v, fmt.Sprintf("%s: %d silent outcome(s) under the counter-attack plan", c.Mode, c.Silent))
		}
		if c.Mode != machine.WTRegister.String() {
			if c.Replays > 0 && c.TreeFlags == 0 {
				v = append(v, fmt.Sprintf("%s: %d replay(s) fired but the tree never flagged one", c.Mode, c.Replays))
			}
			if c.TreeDetected == 0 {
				v = append(v, fmt.Sprintf("%s: no run was classified Detected-by-tree", c.Mode))
			}
		}
	}
	for _, tc := range r.Timing {
		isTree := tc.Scheme != config.WT.String()
		if isTree && tc.TreeWrites == 0 {
			v = append(v, fmt.Sprintf("timing %s: tree scheme issued no tree-node writes", tc.Scheme))
		}
		if !isTree && tc.TreeWrites+tc.TreeCoalesced != 0 {
			v = append(v, fmt.Sprintf("timing %s: treeless scheme issued tree writes", tc.Scheme))
		}
	}
	return v
}

// String renders the experiment as an aligned report.
func (r *IntegrityResult) String() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "Integrity trees: counter-attack outcomes per mode (strong ECC)\n")
	fmt.Fprintf(&b, "%-12s %5s %6s %10s %9s %7s %9s %5s %8s %7s %10s %10s\n",
		"mode", "runs", "clean", "recovered", "detected", "silent", "baseline", "tree",
		"replays", "flags", "rec_hashes", "tree_bytes")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "%-12s %5d %6d %10d %9d %7d %9d %5d %8d %7d %10d %10d\n",
			c.Mode, c.Runs, c.Clean, c.Recovered, c.Detected, c.Silent, c.BaselineCorrupt,
			c.TreeDetected, c.Replays, c.TreeFlags, c.RecoveryHashes, c.TreeBytes)
	}
	fmt.Fprintf(&b, "\nTiming: tree write amplification (array workload)\n")
	fmt.Fprintf(&b, "%-12s %10s %10s %10s %10s %10s %8s\n",
		"scheme", "cycles", "data_w", "ctr_w", "tree_w", "coalesced", "amp")
	for _, tc := range r.Timing {
		fmt.Fprintf(&b, "%-12s %10d %10d %10d %10d %10d %8.3f\n",
			tc.Scheme, tc.Cycles, tc.DataWrites, tc.CounterWrites, tc.TreeWrites,
			tc.TreeCoalesced, tc.WriteAmplification())
	}
	return b.String()
}
