package bench

import (
	"flag"
	"fmt"
	"slices"
	"strings"

	"supermem/internal/config"
	"supermem/internal/crash"
	"supermem/internal/machine"
	"supermem/internal/workload"
)

// The crash experiment is the differential crash fuzzer (crash.Fuzz):
// each workload's sampled crash points, and nested crashes inside their
// recovery, run on every machine design, and each design's verdict is
// checked against Table 1's expected recoverability. Under -hist and
// -events it also observes one crash-free reference run per workload on
// the SuperMem machine, labelled "<workload>/SuperMem"; that machine has
// no cycle clock, so its timeline and "latency" are persist steps.

// crashExperiment registers the fuzzer. Its flags default to the sweep
// the golden artifact pins: every workload, 6 transactions, at most 24
// stage-weighted crash points per mode, nested crashes on.
func crashExperiment() Experiment {
	var (
		wl        string
		steps     int
		maxPoints int
		nested    bool
	)
	return Experiment{
		Name:  "crash",
		Claim: "every machine design's crash verdict matches Table 1 on every workload",
		Flags: func(fs *flag.FlagSet) {
			wl = "all"
			fs.Func("crash-workload", "workload for -exp crash: all or one of "+strings.Join(workload.Names, ", ")+" (default all)", func(s string) error {
				if s != "all" && !slices.Contains(workload.Names, s) {
					return fmt.Errorf("unknown workload %q (want all or one of %s)", s, strings.Join(workload.Names, ", "))
				}
				wl = s
				return nil
			})
			intFlag(fs, &steps, "crash-steps", 6, atLeast(1), "transactions per run for -exp crash (default 6)")
			intFlag(fs, &maxPoints, "crash-maxpoints", 24, atLeast(0), "cap on crash points per mode for -exp crash (default 24; 0 = exhaustive; sampling is stage-weighted)")
			fs.BoolVar(&nested, "crash-nested", true, "also crash inside recovery for -exp crash")
		},
		Run: func(_ config.Config, o Opts) (Result, error) {
			workloads := workload.Names
			if wl != "all" {
				workloads = []string{wl}
			}
			var (
				m     CrashMatrix
				cells []CellObs
			)
			for _, w := range workloads {
				res, err := crash.Fuzz(crash.FuzzParams{
					Workload:  w,
					Steps:     steps,
					Seed:      o.Seed,
					MaxPoints: maxPoints,
					Nested:    nested,
					Parallel:  o.Parallel,
				})
				if err != nil {
					return nil, err
				}
				m = append(m, res)
				p := res.Params
				cell := o.Obs.newCell(w+"/"+config.SuperMem.String(), p.TxBytes, 0)
				if cell.Rec == nil {
					continue
				}
				ref := crash.Params{Mode: machine.WTRegister, Workload: w, TxBytes: p.TxBytes, Items: p.Items, Steps: p.Steps, Seed: p.Seed}
				if _, err := crash.ReferenceRun(ref, cell.Rec); err != nil {
					return nil, fmt.Errorf("%s reference run: %w", w, err)
				}
				cells = append(cells, cell)
			}
			o.Obs.collect(cells)
			return m, nil
		},
	}
}

// CrashMatrix is the crash experiment's result: one differential matrix
// per swept workload, in sweep order, marshaled as a JSON array.
type CrashMatrix []*crash.FuzzResult

// String renders a title, then each workload's matrix in turn.
func (m CrashMatrix) String() string {
	var b strings.Builder
	b.WriteString("Differential crash fuzzer: each design's verdict vs Table 1's expected recoverability\n")
	for _, r := range m {
		b.WriteString(r.String())
	}
	return b.String()
}

// StrictViolations names, per workload, the first machine design whose
// verdict deviates from Table 1.
func (m CrashMatrix) StrictViolations() []string {
	var v []string
	for _, r := range m {
		if err := r.CheckTable1(); err != nil {
			v = append(v, err.Error())
		}
	}
	return v
}
