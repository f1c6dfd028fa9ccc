package bench

import (
	"encoding/json"
	"flag"
	"fmt"
	"strconv"
	"strings"

	"supermem/internal/config"
	"supermem/internal/stats"
)

// Experiment is one entry of the supermem-bench registry: a named run
// that prints one result and writes one BENCH_<name>.json artifact.
type Experiment struct {
	// Name is unique. The part before a "/" is the experiment's group,
	// which -exp also selects by ("fig13" runs every "fig13/..." entry).
	Name string
	// Claim states what the result's StrictViolations checks; -strict
	// prints it when the run passes. Empty when there is nothing to check.
	Claim string
	// Flags, if non-nil, registers the experiment's own flags; Run reads
	// the values they set.
	Flags func(fs *flag.FlagSet)
	// Run executes the experiment on the config template and sizing.
	Run func(cfg config.Config, o Opts) (Result, error)
}

// Result is an experiment's outcome. String is its terminal rendering,
// the value itself marshals as the artifact's "result", and
// StrictViolations lists the claims it breaks (empty when they hold).
type Result interface {
	String() string
	StrictViolations() []string
}

// Experiments returns the registry in "-exp all" order. Each call
// returns fresh entries, so flag values never leak between flag sets.
func Experiments() []Experiment {
	exps := []Experiment{{Name: "table1", Run: func(_ config.Config, o Opts) (Result, error) {
		return Table1Parallel(o.Parallel)
	}}, crashExperiment()}
	sizes := []int{256, 1024, 4096}
	for _, size := range sizes {
		exps = append(exps, Experiment{Name: fmt.Sprintf("fig13/%dB", size), Run: func(cfg config.Config, o Opts) (Result, error) {
			return unsecNormalized(Fig13(cfg, size, o))
		}})
	}
	for _, programs := range []int{2, 4, 8} {
		exps = append(exps, Experiment{Name: fmt.Sprintf("fig14/%dp", programs), Run: func(cfg config.Config, o Opts) (Result, error) {
			return unsecNormalized(Fig14(cfg, programs, o))
		}})
	}
	for _, size := range sizes {
		exps = append(exps, Experiment{Name: fmt.Sprintf("fig15/%dB", size), Run: func(cfg config.Config, o Opts) (Result, error) {
			t, err := Fig15(cfg, size, o)
			return Tables{t}, err
		}})
	}
	return append(exps,
		Experiment{Name: "fig16", Run: func(cfg config.Config, o Opts) (Result, error) {
			reduction, latency, err := Fig16(cfg, o)
			return Tables{reduction, latency}, err
		}},
		Experiment{Name: "fig17", Run: func(cfg config.Config, o Opts) (Result, error) {
			hitRate, execTime, err := Fig17(cfg, o)
			return Tables{hitRate, execTime}, err
		}},
		Experiment{Name: "ablation/placement", Run: func(cfg config.Config, o Opts) (Result, error) {
			t, err := AblationPlacement(cfg, o)
			if err != nil {
				return nil, err
			}
			return Tables{t, t.Normalize("XBank+CWC")}, nil
		}},
		Experiment{Name: "ablation/coalescing", Run: func(cfg config.Config, o Opts) (Result, error) {
			t, err := AblationTxSizeCoalescing(cfg, o)
			return Tables{t}, err
		}},
		Experiment{Name: "sca", Run: func(cfg config.Config, o Opts) (Result, error) {
			return unsecNormalized(ExtensionSCA(cfg, o))
		}},
		Experiment{Name: "osiris", Run: func(cfg config.Config, o Opts) (Result, error) {
			latency, writes, err := ExtensionOsiris(cfg, o)
			if err != nil {
				return nil, err
			}
			return Tables{latency, latency.Normalize("Unsec"), writes}, nil
		}},
		faultSweepExperiment(),
		Experiment{
			Name:  "integrity",
			Claim: "every counter replay was caught by the tree; zero silent outcomes",
			Run: func(cfg config.Config, o Opts) (Result, error) {
				return IntegritySweep(cfg, o, IntegrityOpts{})
			},
		},
		kvExperiment(),
		attackExperiment(),
		mlpExperiment(),
	)
}

// Tables is the result of a figure-style experiment: its tables in
// print order, marshaled as a JSON array.
type Tables []*stats.Table

// String renders the tables one after another.
func (ts Tables) String() string {
	parts := make([]string, len(ts))
	for i, t := range ts {
		parts[i] = t.String()
	}
	return strings.Join(parts, "\n")
}

// CSV renders each table as its title line followed by its CSV rows.
func (ts Tables) CSV() string {
	var b strings.Builder
	for _, t := range ts {
		fmt.Fprintf(&b, "%s\n%s\n", t.Title, t.CSV())
	}
	return b.String()
}

// StrictViolations is empty: the figures make no pass/fail claim.
func (Tables) StrictViolations() []string { return nil }

// unsecNormalized wraps a one-table runner as a Result: the table,
// then its normalization to Unsec (the paper's presentation).
func unsecNormalized(t *stats.Table, err error) (Result, error) {
	if err != nil {
		return nil, err
	}
	return Tables{t, t.Normalize("Unsec")}, nil
}

// StrictViolations is empty: Table 1 is reported, not gated.
func (*Table1Result) StrictViolations() []string { return nil }

// MarshalJSON renders the result as the printed table's rows.
func (r *Table1Result) MarshalJSON() ([]byte, error) {
	type row struct {
		Mode        string          `json:"mode"`
		Recoverable map[string]bool `json:"recoverable"`
		CrashPoints int             `json:"crash_points"`
	}
	rows := make([]row, 0, len(Table1Modes))
	for _, mode := range Table1Modes {
		rec := make(map[string]bool, len(Table1Stages))
		for _, s := range Table1Stages {
			rec[s.String()] = r.Recoverable[mode][s]
		}
		rows = append(rows, row{Mode: mode.String(), Recoverable: rec, CrashPoints: r.CrashPoints[mode]})
	}
	return json.Marshal(rows)
}

// listFlag returns a flag.Func parser that sets *dst to the
// comma-separated values parse accepts; "" restores the default (nil).
func listFlag[T any](dst *[]T, parse func(string) (T, error)) func(string) error {
	return func(s string) error {
		*dst = nil
		if s == "" {
			return nil
		}
		for _, f := range strings.Split(s, ",") {
			v, err := parse(strings.TrimSpace(f))
			if err != nil {
				return fmt.Errorf("bad entry %q: %v", f, err)
			}
			*dst = append(*dst, v)
		}
		return nil
	}
}

// atLeast parses an integer no smaller than min.
func atLeast(min int) func(string) (int, error) {
	return func(s string) (int, error) {
		n, err := strconv.Atoi(s)
		if err == nil && n < min {
			err = fmt.Errorf("want an integer >= %d", min)
		}
		return n, err
	}
}

// coreModelFlag sets *dst to a flag's core-model name, refusing a name
// config.Validate would, so a misspelling fails at flag parsing.
func coreModelFlag(dst *string) func(string) error {
	return func(s string) error {
		if !config.ValidCoreModel(s) {
			return fmt.Errorf("unknown core model %q (want %q or %q)", s, config.CoreInOrder, config.CoreOoO)
		}
		*dst = s
		return nil
	}
}
