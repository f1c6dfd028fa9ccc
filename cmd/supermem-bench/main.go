// Command supermem-bench regenerates the tables and figures of the
// SuperMem paper's evaluation (MICRO 2019) and this repository's
// extensions, one experiment of the internal/bench registry at a time.
//
// Usage:
//
//	supermem-bench -exp fig13                 # Figure 13, all tx sizes (a group)
//	supermem-bench -exp fig13/4096B           # one entry of the group
//	supermem-bench -exp fig14                 # Figure 14 (2/4/8 programs)
//	supermem-bench -exp table1                # recoverability sweep
//	supermem-bench -exp crash -strict         # differential crash fuzzer vs Table 1
//	supermem-bench -exp crash -crash-workload btree -crash-maxpoints 0  # exhaustive
//	supermem-bench -exp ablation              # placement & coalescing ablations
//	supermem-bench -exp faultsweep -strict -json         # CI gate + artifact
//	supermem-bench -exp kv -kv-shards 8 -kv-skew 0.99 -kv-mix 50,30,10,5,5 -json
//	supermem-bench -exp mlp -mlp-widths 1,4 -mlp-mshrs 2 -json
//	supermem-bench -exp all                   # everything
//	supermem-bench -exp all -parallel 1       # serial (identical output)
//
// -exp takes an exact name, a group (the part of a name before "/"), or
// all; an unknown value lists the names. Each experiment's own flags
// (-crash-*, -kv-*, -attack-*, -mlp-*, -fault-seed) are registered
// beside it in internal/bench. Sizing knobs: -transactions, -warmup, -footprint,
// -seed.
//
// Core model knobs: -core selects the per-core timing model for every
// experiment ("inorder", the default, or "ooo"); -ooo-width, -mshrs,
// and -prefetch size the OoO model's issue window, MSHR file, and
// stride prefetcher. The model is timing-only — workload op streams
// and the trace cache are unaffected. -kv-core and -attack-core
// override the model for the KV shard cores and the attack
// experiment's attacker core respectively.
//
// Every experiment is deterministic; -parallel N fans its cells across
// N workers (default: all CPUs) with byte-identical output at any
// setting. -json writes one BENCH_<name>.json artifact per experiment
// ("/" in the name becomes "_"): {"experiment", "result"}, plus
// "histograms" under -hist. Artifacts carry no wall time, so they are
// byte-identical at any -parallel value; wall times go to -perf-append.
// -strict exits non-zero when a result violates its experiment's claim.
//
// Observability (see EXPERIMENTS.md):
//
//	supermem-bench -exp fig13 -hist           # print p50/p95/p99 latency tables
//	supermem-bench -exp fig13 -events t.json  # trace_event capture of one cell
//	supermem-bench -events t.json -events-cell btree/SuperMem
//
// -events writes one Chrome trace_event JSON file per experiment
// (openable in Perfetto) capturing the bank reservations, write-queue
// admissions/retirements, CWC removals, and re-encryptions of every
// cell labelled -events-cell; an experiment with no such cell writes no
// file and says so. -hist collects latency histograms on every timing
// cell of every experiment (the figure grids, kv, mlp, attack,
// integrity's timing cells and faultsweep's quarantine cell; table1
// and the crash-machine fault grids have none); with -json they land in
// the artifact's "histograms" block, one capture per cell, each
// numbered by its index in the experiment's cell order ("cell"). The
// crash experiment's cells are crash-free reference runs on the
// functional SuperMem machine, measured in persist steps instead of
// cycles.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"supermem/internal/bench"
	"supermem/internal/config"
	"supermem/internal/obs"
)

func main() { os.Exit(run(bench.Experiments(), os.Args[1:])) }

// artifact is the BENCH_<name>.json record -json writes.
type artifact struct {
	Experiment string          `json:"experiment"`
	Result     bench.Result    `json:"result"`
	Histograms []bench.CellObs `json:"histograms,omitempty"`
}

// run parses args, runs every experiment of exps that -exp selects, and
// returns the process exit code.
func run(exps []bench.Experiment, args []string) (code int) {
	fs := flag.NewFlagSet("supermem-bench", flag.ContinueOnError)
	var (
		exp          = fs.String("exp", "all", "experiment: a name, a group (the part of a name before \"/\"), or all; names: "+strings.Join(names(exps), ", "))
		strict       = fs.Bool("strict", false, "exit non-zero if a result violates its experiment's claim (silent corruption, an attack without damage, ...)")
		csv          = fs.Bool("csv", false, "print figure tables as CSV instead of aligned text")
		jsonOut      = fs.Bool("json", false, "write a BENCH_<name>.json artifact per experiment")
		parallel     = fs.Int("parallel", runtime.NumCPU(), "simulation cells run concurrently (1 = serial; output is identical)")
		transactions = fs.Int("transactions", 0, "measured transactions per core (0 = default)")
		warmup       = fs.Int("warmup", 0, "warmup transactions per core (0 = auto)")
		footprint    = fs.Uint64("footprint", 0, "per-program footprint in bytes (0 = default 8 MiB)")
		seed         = fs.Int64("seed", 0, "workload seed (0 = default)")
		events       = fs.String("events", "", "write a Chrome trace_event JSON per experiment (base path; experiment name is appended)")
		eventsCell   = fs.String("events-cell", "array/SuperMem", "workload/scheme cell to trace with -events")
		eventsMax    = fs.Int("events-max", 1<<20, "trace event buffer cap per traced cell")
		hist         = fs.Bool("hist", false, "collect per-cell latency histograms (printed, and embedded in -json artifacts)")
		obsWindow    = fs.Uint64("obs-window", 0, "observability series window in cycles (0 = default 4096)")
		perfAppend   = fs.String("perf-append", "", "append this run's per-experiment wall times to the given perf-trajectory JSON file (e.g. BENCH_perf.json)")
		perfLabel    = fs.String("perf-label", "", "free-form label recorded with -perf-append (e.g. a commit subject)")
		cpuProfile   = fs.String("cpuprofile", "", "write a CPU profile of the run to this file (runtime/pprof; read with go tool pprof)")
		memProfile   = fs.String("memprofile", "", "write a heap profile to this file at the end of the run (runtime/pprof; allocation totals included)")

		coreModel = fs.String("core", "", "core timing model for every experiment: inorder (default) or ooo")
		oooWidth  = fs.Int("ooo-width", 0, "OoO issue-window width (0 = default 4; requires -core ooo)")
		mshrs     = fs.Int("mshrs", 0, "MSHR-file entries of the ooo core (0 = default 8; requires -core ooo)")
		prefetch  = fs.Int("prefetch", 0, "stride-prefetcher degree of the ooo core (0 = off; requires -core ooo)")
	)
	for _, e := range exps {
		if e.Flags != nil {
			e.Flags(fs)
		}
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	selected, err := selectExperiments(exps, *exp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "supermem-bench: %v\n", err)
		return 2
	}

	opts := bench.DefaultOpts()
	if *transactions > 0 {
		opts.Transactions = *transactions
	}
	if *warmup > 0 {
		opts.Warmup = *warmup
	}
	if *footprint > 0 {
		opts.FootprintBytes = *footprint
	}
	if *seed != 0 {
		opts.Seed = *seed
	}
	opts.Parallel = *parallel
	// The core-model knobs flow to every experiment through the shared
	// config template (the mlp experiment sweeps its own model axis on
	// top of it). Validate here so a bad -core spelling or an orphan
	// OoO knob fails before any simulation starts.
	cfg := config.Default()
	cfg.CoreModel = *coreModel
	cfg.OoOWidth = *oooWidth
	cfg.MSHREntries = *mshrs
	cfg.PrefetchDegree = *prefetch
	if err := cfg.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "supermem-bench: %v\n", err)
		return 2
	}

	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "supermem-bench: %v\n", err)
		return 1
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintf(os.Stderr, "supermem-bench: %v\n", err)
			code = max(code, 1)
		}
	}()

	var walls []perfExperiment
	for _, e := range selected {
		// A fresh collector per experiment so trace files and histogram
		// blocks don't mix cells across experiments.
		o := opts
		if *hist || *events != "" {
			o.Obs = &bench.ObsCollector{
				Window:         *obsWindow,
				Hist:           *hist,
				TraceLabel:     traceLabel(*events, *eventsCell),
				MaxTraceEvents: *eventsMax,
			}
		}
		start := time.Now()
		hits0, miss0 := bench.CacheStats()
		res, err := e.Run(cfg, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "supermem-bench: %s: %v\n", e.Name, err)
			return 1
		}
		wall := time.Since(start)
		walls = append(walls, perfExperiment{Name: e.Name, WallMillis: wall.Milliseconds()})
		if t, ok := res.(bench.Tables); ok && *csv {
			fmt.Print(t.CSV())
		} else {
			fmt.Println(res)
		}
		hits, miss := bench.CacheStats()
		if dh, dm := hits-hits0, miss-miss0; dh+dm > 0 {
			fmt.Printf("[%s done in %s; trace cache %d hits / %d misses]\n\n", e.Name, wall.Round(time.Millisecond), dh, dm)
		} else {
			fmt.Printf("[%s done in %s]\n\n", e.Name, wall.Round(time.Millisecond))
		}

		a := artifact{Experiment: e.Name, Result: res}
		if o.Obs != nil {
			if *hist {
				a.Histograms = o.Obs.Cells()
				if !*jsonOut {
					printHistograms(a.Histograms)
				}
			}
			if *events != "" {
				if err := writeTrace(*events, e.Name, o.Obs); err != nil {
					fmt.Fprintf(os.Stderr, "supermem-bench: %v\n", err)
					return 1
				}
			}
		}
		if *jsonOut {
			path := "BENCH_" + fileName(e.Name) + ".json"
			if err := writeJSON(path, a); err != nil {
				fmt.Fprintf(os.Stderr, "supermem-bench: %v\n", err)
				return 1
			}
			fmt.Printf("[wrote %s]\n\n", path)
		}
		if *strict {
			if v := res.StrictViolations(); len(v) > 0 {
				fmt.Fprintf(os.Stderr, "supermem-bench: %s strict check FAILED:\n  %s\n", e.Name, strings.Join(v, "\n  "))
				return 1
			}
			if e.Claim != "" {
				fmt.Printf("%s strict check passed: %s\n", e.Name, e.Claim)
			}
		}
	}
	if *perfAppend != "" {
		err := appendPerf(*perfAppend, perfRun{
			Date:         time.Now().UTC().Format("2006-01-02T15:04:05Z"),
			Label:        *perfLabel,
			GoVersion:    runtime.Version(),
			Parallel:     *parallel,
			Transactions: opts.Transactions,
			Experiments:  walls,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "supermem-bench: %v\n", err)
			return 1
		}
	}
	return 0
}

// startProfiles opens the -cpuprofile and -memprofile files (either
// may be "" for none) and starts the CPU profile. The returned stop
// ends the CPU profile and writes the heap profile after a collection,
// so its in-use figures are the live heap at the end of the run.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpu, mem *os.File
	if memPath != "" {
		if mem, err = os.Create(memPath); err != nil {
			return nil, err
		}
	}
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err == nil {
			if err = pprof.StartCPUProfile(cpu); err != nil {
				cpu.Close()
			}
		}
		if err != nil {
			if mem != nil {
				mem.Close()
			}
			return nil, err
		}
	}
	return func() error {
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			errs = append(errs, cpu.Close())
		}
		if mem != nil {
			runtime.GC()
			errs = append(errs, pprof.WriteHeapProfile(mem), mem.Close())
		}
		return errors.Join(errs...)
	}, nil
}

// names lists the registry's experiment names in order.
func names(exps []bench.Experiment) []string {
	out := make([]string, len(exps))
	for i, e := range exps {
		out[i] = e.Name
	}
	return out
}

// selectExperiments returns the entries sel picks: an exact name, a
// group (the part of a name before "/"), or all.
func selectExperiments(exps []bench.Experiment, sel string) ([]bench.Experiment, error) {
	var out []bench.Experiment
	for _, e := range exps {
		group, _, _ := strings.Cut(e.Name, "/")
		if sel == "all" || sel == e.Name || sel == group {
			out = append(out, e)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("unknown experiment %q (want all, a group, or one of: %s)", sel, strings.Join(names(exps), ", "))
	}
	return out, nil
}

// fileName flattens an experiment name for use in a file name.
func fileName(name string) string { return strings.ReplaceAll(name, "/", "_") }

// perfSchema versions the perf-trajectory file; CI diffs it.
const perfSchema = 1

// perfExperiment is one experiment's headline wall time within a run.
type perfExperiment struct {
	Name       string `json:"name"`
	WallMillis int64  `json:"wall_ms"`
}

// perfRun is one appended record in the perf-trajectory file: the
// wall time of every experiment the invocation ran.
type perfRun struct {
	Date         string           `json:"date"`
	Label        string           `json:"label,omitempty"`
	GoVersion    string           `json:"go_version"`
	Parallel     int              `json:"parallel"`
	Transactions int              `json:"transactions"`
	Experiments  []perfExperiment `json:"experiments"`
}

// perfFile is the BENCH_perf.json trajectory: an append-only log of
// benchmark runs across the repository's history. Earlier runs are kept
// as raw JSON so fields a later perfRun no longer carries survive an
// append.
type perfFile struct {
	Schema int               `json:"schema"`
	Runs   []json.RawMessage `json:"runs"`
}

// appendPerf loads (or creates) the trajectory file and appends run.
func appendPerf(path string, run perfRun) error {
	var pf perfFile
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &pf); err != nil {
			return fmt.Errorf("parsing %s: %w", path, err)
		}
		if pf.Schema != perfSchema {
			return fmt.Errorf("%s has schema %d, want %d", path, pf.Schema, perfSchema)
		}
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("reading %s: %w", path, err)
	}
	rec, err := json.Marshal(run)
	if err != nil {
		return fmt.Errorf("encoding run: %w", err)
	}
	pf.Schema = perfSchema
	pf.Runs = append(pf.Runs, rec)
	if err := writeJSON(path, pf); err != nil {
		return err
	}
	fmt.Printf("[appended run %d to %s]\n", len(pf.Runs), path)
	return nil
}

// writeJSON saves v as indented JSON with a trailing newline.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

// traceLabel returns the trace cell selector, or "" when -events is
// off (so histogram-only runs buffer no events).
func traceLabel(events, cell string) string {
	if events == "" {
		return ""
	}
	return cell
}

// printHistograms renders the per-cell latency distributions -hist
// collected.
func printHistograms(cells []bench.CellObs) {
	for _, c := range cells {
		fmt.Printf("latency histograms: %s\n%s\n", c.Name(), c.Hist)
	}
}

// writeTrace saves an experiment's traced cells as
// <base minus extension>_<experiment>.json trace_event files, or says
// that no cell matched the trace label.
func writeTrace(base, expName string, c *bench.ObsCollector) error {
	sections := c.TraceSections()
	if len(sections) == 0 {
		fmt.Printf("[no cell labelled %s in %s; no trace written]\n\n", c.TraceLabel, expName)
		return nil
	}
	path := strings.TrimSuffix(base, ".json") + "_" + fileName(expName) + ".json"
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := obs.WriteTrace(f, sections...)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("writing %s: %w", path, werr)
	}
	kept, dropped := 0, 0
	for _, s := range sections {
		k, d := s.Rec.TraceStats()
		kept += k
		dropped += d
	}
	if dropped > 0 {
		fmt.Printf("[wrote %s: %d events (%d dropped; raise -events-max); open at ui.perfetto.dev]\n\n", path, kept, dropped)
	} else {
		fmt.Printf("[wrote %s: %d events; open at ui.perfetto.dev]\n\n", path, kept)
	}
	return nil
}
