// Command supermem-crash is the crash-consistency fuzzer. By default it
// runs the *differential* fuzzer: every sampled crash point of a
// workload is executed across all machine designs (SuperMem,
// write-through without the register, write-back with and without
// battery, Osiris, unencrypted), recovered, verified against a
// deterministic replay, and the per-mode verdicts are checked against
// Table 1's expected recoverability. Failing points are shrunk to the
// earliest failing persist index and reported with divergent byte
// ranges and counter lines.
//
// Usage:
//
//	supermem-crash                            # differential fuzz, all workloads
//	supermem-crash -workload btree -steps 10  # one workload, longer run
//	supermem-crash -nested                    # also crash inside recovery
//	supermem-crash -maxpoints 64 -seed 7      # sampled (stage-weighted) points
//	supermem-crash -parallel 4                # worker count (output identical)
//	supermem-crash -json                      # also write BENCH_crash.json
//	supermem-crash -workload btree -events t.json -hist  # observe a reference run
//
// -events and -hist run one crash-free reference transaction sequence
// per workload on the byte-accurate machine and capture it: the trace
// timeline is the persist-step index (one instant per persist, spans
// for RSR re-encryptions), and the histogram counts persist steps per
// transaction.
//
// Determinism contract: for a fixed -seed the tested point set — and
// therefore the entire report, BENCH_crash.json included — is
// byte-identical at any -parallel value.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"supermem"
)

// artifact is the machine-readable record -json emits. Like
// supermem-bench's BENCH_<name>.json artifacts it carries no wall time
// or worker count, so it is byte-identical at any -parallel value.
type artifact struct {
	Experiment string                      `json:"experiment"`
	Seed       int64                       `json:"seed"`
	Nested     bool                        `json:"nested"`
	Matrix     []*supermem.CrashFuzzResult `json:"matrix"`
	Text       string                      `json:"text,omitempty"`
}

func main() { os.Exit(run(os.Args[1:])) }

// run parses args, fuzzes every selected workload, and returns the
// process exit code: 2 for a bad flag, 1 for a failed run, a Table 1
// mismatch or an unwritable artifact, 0 otherwise.
func run(args []string) int {
	fs := flag.NewFlagSet("supermem-crash", flag.ContinueOnError)
	var (
		wl        = fs.String("workload", "", "workload (default: all): array, queue, btree, hashtable, rbtree")
		steps     = fs.Int("steps", 8, "transactions per run")
		seed      = fs.Int64("seed", 1, "workload and sampling seed (results are deterministic per seed)")
		maxPoints = fs.Int("maxpoints", 0, "cap on crash points per mode (0 = exhaustive; sampling is stage-weighted)")
		nested    = fs.Bool("nested", false, "also inject crashes at every persistence step of the recovery path")
		parallel  = fs.Int("parallel", runtime.NumCPU(), "worker count (output is identical at any value)")
		jsonOut   = fs.Bool("json", false, "write a BENCH_crash.json artifact with the full differential matrix")
		events    = fs.String("events", "", "write a Chrome trace_event JSON of a crash-free reference run per workload")
		eventsMax = fs.Int("events-max", 1<<20, "trace event buffer cap per workload")
		hist      = fs.Bool("hist", false, "print the persist-steps-per-transaction histogram of a reference run per workload")
		obsWindow = fs.Uint64("obs-window", 0, "observability series window in persist steps (0 = default 4096)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	workloads := supermem.Workloads()
	if *wl != "" {
		workloads = []string{*wl}
	}

	if *events != "" || *hist {
		if err := observeReferenceRuns(workloads, *steps, *events, *eventsMax, *hist, *obsWindow); err != nil {
			fmt.Fprintf(os.Stderr, "supermem-crash: %v\n", err)
			return 1
		}
	}

	start := time.Now()
	var results []*supermem.CrashFuzzResult
	text := ""
	exitCode := 0
	for _, w := range workloads {
		res, err := supermem.CrashFuzz(supermem.CrashFuzzParams{
			Workload:  w,
			Steps:     *steps,
			Seed:      *seed,
			MaxPoints: *maxPoints,
			Nested:    *nested,
			Parallel:  *parallel,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "supermem-crash: %s: %v\n", w, err)
			return 1
		}
		results = append(results, res)
		text += res.String()
		fmt.Print(res)
		if err := res.CheckTable1(); err != nil {
			fmt.Fprintf(os.Stderr, "supermem-crash: %v\n", err)
			exitCode = 1
		}
	}
	fmt.Printf("[differential fuzz done in %s]\n", time.Since(start).Round(time.Millisecond))

	if *jsonOut {
		err := writeArtifact(artifact{
			Experiment: "crash",
			Seed:       *seed,
			Nested:     *nested,
			Matrix:     results,
			Text:       text,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "supermem-crash: %v\n", err)
			return 1
		}
	}
	return exitCode
}

// observeReferenceRuns executes one crash-free reference run per
// workload on the SuperMem machine with a recorder attached, printing
// histograms and/or writing all workloads' trace sections to one
// trace_event file (one process per workload).
func observeReferenceRuns(workloads []string, steps int, events string, eventsMax int, hist bool, window uint64) error {
	var sections []supermem.TraceSection
	for _, w := range workloads {
		rec := supermem.NewObsRecorder(supermem.ObsOptions{
			Window:         window,
			Trace:          events != "",
			MaxTraceEvents: eventsMax,
		})
		counts, err := supermem.CrashReferenceRun(supermem.CrashSuperMem, w, steps, rec)
		if err != nil {
			return fmt.Errorf("%s reference run: %w", w, err)
		}
		if hist {
			fmt.Printf("%s: %d transactions, persist steps per transaction:\n%s", w, len(counts), rec.Snapshot())
		}
		if events != "" {
			sections = append(sections, supermem.TraceSection{
				PID:  len(sections) + 1,
				Name: fmt.Sprintf("%s reference (SuperMem machine)", w),
				Rec:  rec,
			})
		}
	}
	if events == "" {
		return nil
	}
	f, err := os.Create(events)
	if err != nil {
		return err
	}
	werr := supermem.WriteTrace(f, sections...)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("writing %s: %w", events, werr)
	}
	fmt.Printf("[wrote %s; open at ui.perfetto.dev]\n", events)
	return nil
}

// writeArtifact saves a as BENCH_crash.json in the working directory.
func writeArtifact(a artifact) error {
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding BENCH_crash.json: %w", err)
	}
	if err := os.WriteFile("BENCH_crash.json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("[wrote BENCH_crash.json]")
	return nil
}
