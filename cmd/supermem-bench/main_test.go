package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"supermem/internal/bench"
	"supermem/internal/config"
	"supermem/internal/workload"
)

// perfRuns decodes a perf-trajectory file's runs generically, so the
// check sees every field a run carries, not just those perfRun knows.
func perfRuns(t *testing.T, path string) []map[string]any {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Schema int              `json:"schema"`
		Runs   []map[string]any `json:"runs"`
	}
	if err := json.Unmarshal(data, &f); err != nil || f.Schema != perfSchema {
		t.Fatalf("%s: schema %d (want %d), err %v", path, f.Schema, perfSchema, err)
	}
	return f.Runs
}

// TestAppendPerfKeepsHistory: appending a run must leave every earlier
// run exactly as recorded, including fields the current perfRun no
// longer has (the removed engine-partitioning flag), and the new run
// must carry only perfRun's fields.
func TestAppendPerfKeepsHistory(t *testing.T) {
	orig, err := os.ReadFile(filepath.Join("..", "..", "BENCH_perf.json"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_perf.json")
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	before := perfRuns(t, path)
	run := perfRun{Date: "2026-01-01T00:00:00Z", GoVersion: "go-test", Parallel: 2, Transactions: 5,
		Experiments: []perfExperiment{{Name: "fig13/1024B", WallMillis: 1}}}
	if err := appendPerf(path, run); err != nil {
		t.Fatal(err)
	}
	after := perfRuns(t, path)
	if len(after) != len(before)+1 {
		t.Fatalf("%d runs after append, want %d", len(after), len(before)+1)
	}

	known := map[string]bool{"label": true}
	var added []string
	for k := range after[len(before)] {
		known[k] = true
		added = append(added, k)
	}
	sort.Strings(added)
	if want := []string{"date", "experiments", "go_version", "parallel", "transactions"}; !reflect.DeepEqual(added, want) {
		t.Errorf("new run keys = %v, want %v", added, want)
	}
	legacy := false
	for i, r := range before {
		if !reflect.DeepEqual(after[i], r) {
			t.Errorf("run %d changed by append:\n before %v\n after  %v", i, r, after[i])
		}
		for k := range r {
			legacy = legacy || !known[k]
		}
	}
	if !legacy {
		t.Error("no earlier run has a field perfRun lacks; the test no longer checks history retention")
	}
}

// TestRegistryConformance holds every registry entry to the CLI's
// contract: unique names, artifact paths and flags, selectors the docs
// and CI use select something, and an unknown -exp names the choices.
func TestRegistryConformance(t *testing.T) {
	exps := bench.Experiments()
	names, paths, flags := map[string]bool{}, map[string]bool{}, map[string]string{}
	for _, e := range exps {
		if e.Name == "" || e.Run == nil {
			t.Errorf("entry %q has no name or no Run", e.Name)
		}
		path := "BENCH_" + fileName(e.Name) + ".json"
		if names[e.Name] || paths[path] {
			t.Errorf("%s: duplicate name or artifact path %s", e.Name, path)
		}
		names[e.Name], paths[path] = true, true
		if e.Flags == nil {
			continue
		}
		fs := flag.NewFlagSet(e.Name, flag.ContinueOnError)
		e.Flags(fs)
		fs.VisitAll(func(f *flag.Flag) {
			if owner, dup := flags[f.Name]; dup {
				t.Errorf("flag -%s registered by both %s and %s", f.Name, owner, e.Name)
			}
			flags[f.Name] = e.Name
		})
	}
	// Registering the experiments' flags beside the CLI's own panics on
	// a clash.
	if code := run(exps, []string{"-h"}); code != 0 {
		t.Errorf("-h exit code %d, want 0", code)
	}

	for _, sel := range []string{"all", "table1", "crash", "fig13", "fig13/1024B", "fig14", "fig15", "fig16", "fig17",
		"ablation", "sca", "osiris", "faultsweep", "integrity", "kv", "attack", "mlp"} {
		if got, err := selectExperiments(exps, sel); err != nil || len(got) == 0 {
			t.Errorf("-exp %s selects %d entries, err %v", sel, len(got), err)
		}
	}
	if got, _ := selectExperiments(exps, "all"); len(got) != len(exps) {
		t.Errorf("-exp all selects %d of %d entries", len(got), len(exps))
	}
	_, err := selectExperiments(exps, "fig99")
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	for name := range names {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-experiment error does not list %s: %v", name, err)
		}
	}
	if code := run(exps, []string{"-exp", "fig99"}); code != 2 {
		t.Errorf("unknown -exp exit code %d, want 2", code)
	}
	// A misspelt per-experiment core model fails at flag parsing, before
	// any cell is simulated, as -core does.
	for _, args := range [][]string{{"-exp", "kv", "-kv-core", "bogus"}, {"-exp", "attack", "-attack-core", "bogus"}} {
		if code := run(exps, args); code != 2 {
			t.Errorf("%v exit code %d, want 2", args, code)
		}
	}
}

// fakeResult is a minimal Result for driving the loop.
type fakeResult struct {
	Value      int      `json:"value"`
	Violations []string `json:"-"`
}

func (r fakeResult) String() string             { return fmt.Sprintf("fake result %d", r.Value) }
func (r fakeResult) StrictViolations() []string { return r.Violations }

// fakeExperiments returns two cheap entries in one group, recording the
// observability collector each Run receives. -fake-fail makes both
// results violate their claim.
func fakeExperiments(collectors *[]*bench.ObsCollector) []bench.Experiment {
	fail := false
	entry := func(name string, value int) bench.Experiment {
		return bench.Experiment{Name: name, Claim: "the fake holds", Run: func(_ config.Config, o bench.Opts) (bench.Result, error) {
			*collectors = append(*collectors, o.Obs)
			r := fakeResult{Value: value}
			if fail {
				r.Violations = []string{name + " broke its claim"}
			}
			return r, nil
		}}
	}
	a, b := entry("fake/a", 1), entry("fake/b", 2)
	b.Flags = func(fs *flag.FlagSet) {
		fs.BoolVar(&fail, "fake-fail", false, "make the fake results violate their claim")
	}
	return []bench.Experiment{a, b}
}

// TestRunLoop drives the CLI loop with two fake experiments: every run
// lands in -perf-append, -hist hands each Run a fresh collector, the
// artifact is {"experiment", "result"} only, and -strict gates.
func TestRunLoop(t *testing.T) {
	t.Chdir(t.TempDir())
	var collectors []*bench.ObsCollector
	if code := run(fakeExperiments(&collectors), []string{"-exp", "fake", "-json", "-hist", "-strict", "-perf-append", "perf.json"}); code != 0 {
		t.Fatalf("exit code %d, want 0", code)
	}

	runs := perfRuns(t, "perf.json")
	var recorded []string
	for _, e := range runs[len(runs)-1]["experiments"].([]any) {
		recorded = append(recorded, e.(map[string]any)["name"].(string))
	}
	if want := []string{"fake/a", "fake/b"}; !reflect.DeepEqual(recorded, want) {
		t.Errorf("perf run records %v, want %v", recorded, want)
	}

	if len(collectors) != 2 || collectors[0] == nil || collectors[0] == collectors[1] {
		t.Fatalf("-hist collectors %v, want two distinct non-nil ones", collectors)
	}
	for i, c := range collectors {
		if !c.Hist || len(c.Cells()) != 0 {
			t.Errorf("collector %d: hist %v with %d cells, want a fresh histogram collector", i, c.Hist, len(c.Cells()))
		}
	}

	for i, name := range []string{"fake_a", "fake_b"} {
		data, err := os.ReadFile("BENCH_" + name + ".json")
		if err != nil {
			t.Fatal(err)
		}
		var a map[string]any
		if err := json.Unmarshal(data, &a); err != nil {
			t.Fatal(err)
		}
		var keys []string
		for k := range a {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if want := []string{"experiment", "result"}; !reflect.DeepEqual(keys, want) {
			t.Errorf("%s keys = %v, want %v", name, keys, want)
		}
		if got := a["result"].(map[string]any)["value"]; got != float64(i+1) {
			t.Errorf("%s result value = %v, want %d", name, got, i+1)
		}
	}

	if code := run(fakeExperiments(&collectors), []string{"-exp", "fake/b", "-fake-fail"}); code != 0 {
		t.Errorf("violation without -strict: exit code %d, want 0", code)
	}
	if code := run(fakeExperiments(&collectors), []string{"-exp", "fake/b", "-fake-fail", "-strict"}); code != 1 {
		t.Errorf("violation under -strict: exit code %d, want 1", code)
	}
}

// TestUnwritableArtifactFails: a run that cannot write its artifact
// must not exit 0.
func TestUnwritableArtifactFails(t *testing.T) {
	t.Chdir(t.TempDir())
	if err := os.Mkdir("BENCH_crash.json", 0o755); err != nil {
		t.Fatal(err)
	}
	args := []string{"-exp", "crash", "-crash-workload", "array", "-crash-steps", "2", "-crash-maxpoints", "4", "-json"}
	if code := run(bench.Experiments(), args); code != 1 {
		t.Errorf("exit code %d, want 1", code)
	}
}

// TestProfileFlags: -cpuprofile and -memprofile each write a non-empty
// pprof file, and a profile path that cannot be created fails the run
// before any experiment starts.
func TestProfileFlags(t *testing.T) {
	t.Chdir(t.TempDir())
	args := []string{"-exp", "table1", "-cpuprofile", "cpu.prof", "-memprofile", "mem.prof"}
	if code := run(bench.Experiments(), args); code != 0 {
		t.Fatalf("exit code %d, want 0", code)
	}
	for _, f := range []string{"cpu.prof", "mem.prof"} {
		if st, err := os.Stat(f); err != nil || st.Size() == 0 {
			t.Errorf("%s: %v, want a non-empty profile", f, err)
		}
	}
	if code := run(bench.Experiments(), []string{"-exp", "table1", "-cpuprofile", "missing/cpu.prof"}); code != 1 {
		t.Errorf("unwritable -cpuprofile: exit code %d, want 1", code)
	}
}

// TestCrashHistograms: under -hist the crash experiment observes one
// reference run per swept workload, and the artifact's histograms block
// holds one "<workload>/SuperMem" cell for each.
func TestCrashHistograms(t *testing.T) {
	t.Chdir(t.TempDir())
	args := []string{"-exp", "crash", "-crash-steps", "2", "-crash-maxpoints", "4", "-hist", "-json"}
	if code := run(bench.Experiments(), args); code != 0 {
		t.Fatalf("exit code %d, want 0", code)
	}
	data, err := os.ReadFile("BENCH_crash.json")
	if err != nil {
		t.Fatal(err)
	}
	var a struct {
		Histograms []bench.CellObs `json:"histograms"`
	}
	if err := json.Unmarshal(data, &a); err != nil {
		t.Fatal(err)
	}
	var labels, want []string
	for _, c := range a.Histograms {
		labels = append(labels, c.Label)
		if c.Hist.TxLatency.Count != 2 {
			t.Errorf("%s: %d transactions in the histogram, want 2", c.Label, c.Hist.TxLatency.Count)
		}
	}
	for _, w := range workload.Names {
		want = append(want, w+"/SuperMem")
	}
	if !reflect.DeepEqual(labels, want) {
		t.Errorf("histogram cells %v, want %v", labels, want)
	}
}
