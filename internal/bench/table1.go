package bench

import (
	"bytes"
	"fmt"

	"supermem/internal/machine"
	"supermem/internal/par"
	"supermem/internal/pmem"
)

// Table 1 reproduction: the recoverability of a durable transaction when
// a system failure strikes in each stage (prepare / mutate / commit),
// contrasted across machine designs. The paper's table describes an
// encrypted NVM whose counter cache is write-back without counter
// atomicity — our machine.WBNoBattery — where mutate- and commit-stage
// crashes are unrecoverable; SuperMem (machine.WTRegister) recovers from
// every stage.

// Table1Modes are the designs contrasted by the recoverability sweep.
var Table1Modes = []machine.Mode{
	machine.WBNoBattery,
	machine.WTNoRegister,
	machine.WBBattery,
	machine.WTRegister,
}

// Table1Stages lists the paper's transaction stages.
var Table1Stages = []pmem.Stage{pmem.StagePrepare, pmem.StageMutate, pmem.StageCommit}

// Table1Result reports, per mode and stage, whether *every* crash point
// inside the stage was recoverable (data readable as either the old or
// the new value after recovery).
type Table1Result struct {
	// Recoverable[mode][stage] is true when all crash points in the
	// stage recovered.
	Recoverable map[machine.Mode]map[pmem.Stage]bool
	// CrashPoints counts the persistence steps swept per mode.
	CrashPoints map[machine.Mode]int
}

const (
	t1LogBase  = 0
	t1LogSize  = 64 << 10
	t1DataAddr = 1 << 20
	t1Payload  = 256
)

// table1Run executes setup + the transaction under test on a fresh
// machine, optionally crashing at the given persist step (-1 = never).
// It returns the machine and the stage boundaries (persist counts at
// each stage start, measured relative to the armed point).
func table1Run(mode machine.Mode, crashAt int, old, new []byte) (*machine.Machine, []int, error) {
	m, err := machine.New(mode, []byte("table1-table1-.."))
	if err != nil {
		return nil, nil, err
	}
	tm := pmem.NewTxManager(m, t1LogBase, t1LogSize)
	// Setup: commit the old value, then persist its counters (as the
	// write-back cache eventually would) so the old data is readable —
	// the premise of Table 1's "Data Counter: Correct" column.
	tx := tm.Begin()
	tx.Write(t1DataAddr, old)
	if err := tx.Commit(); err != nil {
		return nil, nil, err
	}
	m.FlushCounters()

	var boundaries []int
	tm.StageHook = func(pmem.Stage) { boundaries = append(boundaries, m.Persists()) }
	if crashAt >= 0 {
		m.ArmCrashAtPersist(crashAt)
	} else {
		// Measure boundaries relative to this point for the sweep.
		base := m.Persists()
		defer func() {
			for i := range boundaries {
				boundaries[i] -= base
			}
		}()
	}
	tx = tm.Begin()
	tx.Write(t1DataAddr, new)
	tx.Commit() // a crash mid-commit surfaces as a no-op, not an error
	return m, boundaries, nil
}

// classifyRecovery reboots the machine, runs log recovery, and reports
// whether the data is consistent (old or new).
func classifyRecovery(m *machine.Machine, old, new []byte) bool {
	r := m.Recover()
	pmem.Recover(r, t1LogBase, t1LogSize)
	got := r.Load(t1DataAddr, len(old))
	return bytes.Equal(got, old) || bytes.Equal(got, new)
}

// Table1 sweeps every crash point of a durable transaction on each mode
// and classifies recoverability per stage.
func Table1() (*Table1Result, error) { return Table1Parallel(0) }

// Table1Parallel is Table1 with an explicit worker count for the
// crash-point sweep (<= 0 means GOMAXPROCS). Every crash point runs on
// its own fresh machine, so the sweep parallelizes exactly like the
// figure grids and the classification is order-independent.
func Table1Parallel(parallel int) (*Table1Result, error) {
	old := make([]byte, t1Payload)
	new := make([]byte, t1Payload)
	for i := range old {
		old[i] = byte(i)
		new[i] = byte(255 - i)
	}
	res := &Table1Result{
		Recoverable: make(map[machine.Mode]map[pmem.Stage]bool),
		CrashPoints: make(map[machine.Mode]int),
	}
	for _, mode := range Table1Modes {
		// Probe run: find the stage boundaries and total persist count
		// of the transaction under test, relative to its start.
		probe, boundaries, err := table1Run(mode, -1, old, new)
		if err != nil {
			return nil, fmt.Errorf("table1 %v probe: %w", mode, err)
		}
		if len(boundaries) != 3 {
			return nil, fmt.Errorf("table1 %v: %d stage boundaries, want 3", mode, len(boundaries))
		}
		relTotal := probe.Persists() - setupPersists(mode, old)
		res.CrashPoints[mode] = relTotal
		stageOK := map[pmem.Stage]bool{pmem.StagePrepare: true, pmem.StageMutate: true, pmem.StageCommit: true}
		recovered := make([]bool, relTotal)
		err = par.ForEachIndex(parallel, relTotal, func(crashAt int) error {
			m, _, err := table1Run(mode, crashAt, old, new)
			if err != nil {
				return fmt.Errorf("table1 %v crash@%d: %w", mode, crashAt, err)
			}
			recovered[crashAt] = classifyRecovery(m, old, new)
			return nil
		})
		if err != nil {
			return nil, err
		}
		for crashAt, ok := range recovered {
			if !ok {
				stageOK[stageOf(crashAt, boundaries)] = false
			}
		}
		res.Recoverable[mode] = stageOK
	}
	return res, nil
}

// setupPersists counts the persist steps of the setup transaction alone.
func setupPersists(mode machine.Mode, old []byte) int {
	m, _ := machine.New(mode, []byte("table1-table1-.."))
	tm := pmem.NewTxManager(m, t1LogBase, t1LogSize)
	tx := tm.Begin()
	tx.Write(t1DataAddr, old)
	tx.Commit()
	m.FlushCounters()
	return m.Persists()
}

// stageOf maps a relative crash point to its transaction stage using the
// relative stage-start boundaries.
func stageOf(crashAt int, boundaries []int) pmem.Stage {
	switch {
	case crashAt < boundaries[1]:
		return pmem.StagePrepare
	case crashAt < boundaries[2]:
		return pmem.StageMutate
	default:
		return pmem.StageCommit
	}
}

// String renders the result as the paper's Table 1 layout.
func (r *Table1Result) String() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "Table 1: recoverability by crash stage (Yes = every crash point recovered)\n")
	fmt.Fprintf(&b, "%-16s", "mode")
	for _, s := range Table1Stages {
		fmt.Fprintf(&b, "%10s", s)
	}
	fmt.Fprintf(&b, "%14s\n", "crash points")
	for _, mode := range Table1Modes {
		fmt.Fprintf(&b, "%-16s", mode)
		for _, s := range Table1Stages {
			v := "No"
			if r.Recoverable[mode][s] {
				v = "Yes"
			}
			fmt.Fprintf(&b, "%10s", v)
		}
		fmt.Fprintf(&b, "%14d\n", r.CrashPoints[mode])
	}
	return b.String()
}
