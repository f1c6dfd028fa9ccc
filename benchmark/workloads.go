package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"supermem/internal/bench"
	"supermem/internal/config"
	"supermem/internal/core"
	"supermem/internal/crash"
	"supermem/internal/machine"
	"supermem/internal/nvm"
	"supermem/internal/stats"
	"supermem/internal/trace"
	"supermem/internal/workload"
)

// sizing is the input size of every workload. fullSize is what the
// benchmark measures; tests run a reduced copy.
type sizing struct {
	PaperTx        int    // measured transactions per program (paper grids)
	PaperFootprint uint64 // per-program footprint, paper-1c
	MultiFootprint uint64 // per-program footprint, paper-8p
	KVKeys         int    // keys preloaded per shard
	KVRequests     int    // measured requests per shard
	FuzzSteps      int    // transactions per crash-fuzz run
}

// fullSize keeps one pass of each workload within 1-3 host seconds on
// a 2-core x86-64 host, so a 20 s run measures many whole passes.
var fullSize = sizing{
	PaperTx:        50,
	PaperFootprint: 512 << 10,
	MultiFootprint: 256 << 10,
	KVKeys:         8 << 10,
	KVRequests:     4000,
	FuzzSteps:      5,
}

// workloadNames lists the workloads in the order the benchmark runs them.
var workloadNames = []string{"paper-1c", "paper-8p", "kv-zipf", "crash-fuzz"}

// newSuite builds a workload's cell list for a seed.
func newSuite(name string, seed int64, sz sizing) (suite, error) {
	switch name {
	case "paper-1c":
		return paper1c(seed, sz), nil
	case "paper-8p":
		return paper8p(seed, sz), nil
	case "kv-zipf":
		return kvZipf(seed, sz), nil
	case "crash-fuzz":
		return crashFuzz(seed, sz), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// A suite is one workload: set-up that builds its inputs afresh,
// then a fixed list of cells, each a call into the simulator whose
// output is checked.
type suite interface {
	// setup builds the inputs the cells replay, afresh.
	setup(tr *tracer) (setupStat, error)
	// cells names one pass's cells, in run order.
	cells() []string
	// run executes cell i. It may only be called after setup.
	run(i int, tr *tracer) (cell, error)
	// check verifies cell i's output by invariants that hold at any
	// seed; it runs after the measured phase.
	check(i int, c cell) error
}

// setupStat is what one set-up generated: trace ops recorded, and how
// many of them precede the end-of-warmup marker (traced runs only).
type setupStat struct {
	ops, warmupOps int64
}

// cell is one cell's result.
type cell struct {
	// out is the output the golden files pin.
	out any
	// work is the cell's share of ops_per_s: trace ops replayed, or
	// crash points (outer plus nested) checked.
	work int64
	// m and banks are the simulated statistics of a sim cell.
	m     stats.Metrics
	banks []nvm.BankStats
	// points, nested and probes describe a crash-fuzz cell.
	points, nested, probes int64
}

// simSuite runs timing-model cells that replay recorded traces.
type simSuite struct {
	// traces holds one spec per distinct recording; set-up records
	// exactly these, so every cell's lookup afterwards is a cache hit.
	traces []bench.Spec
	specs  []bench.Spec
	names  []string
	cache  *bench.TraceCache
}

func (s *simSuite) add(spec bench.Spec, name string) {
	s.specs = append(s.specs, spec)
	s.names = append(s.names, name)
}

func paperSpec(wl string, s config.Scheme, txBytes, cores, tx int, footprint uint64, seed int64) bench.Spec {
	return bench.Spec{
		Base:           config.Default(),
		Workload:       wl,
		Scheme:         s,
		TxBytes:        txBytes,
		Transactions:   tx,
		Cores:          cores,
		FootprintBytes: footprint,
		Seed:           seed,
	}
}

// paper1c is the Figure 13 grid: every structure, every paper scheme,
// three transaction sizes, one core.
func paper1c(seed int64, sz sizing) *simSuite {
	s := &simSuite{}
	for _, tx := range []int{256, 1024, 4096} {
		for _, wl := range workload.Names {
			s.traces = append(s.traces, paperSpec(wl, config.Unsec, tx, 1, sz.PaperTx, sz.PaperFootprint, seed))
			for _, sch := range config.AllSchemes() {
				s.add(paperSpec(wl, sch, tx, 1, sz.PaperTx, sz.PaperFootprint, seed), fmt.Sprintf("%s/%s/%dB", wl, sch, tx))
			}
		}
	}
	return s
}

// paper8pSchemes is BenchmarkFig14MultiCore's scheme set.
var paper8pSchemes = []config.Scheme{config.Unsec, config.WB, config.WT, config.SuperMem}

// paper8p is Figure 14 at eight programs, 1 KB transactions.
func paper8p(seed int64, sz sizing) *simSuite {
	s := &simSuite{}
	for _, wl := range workload.Names {
		s.traces = append(s.traces, paperSpec(wl, config.Unsec, 1024, 8, sz.PaperTx, sz.MultiFootprint, seed))
		for _, sch := range paper8pSchemes {
			s.add(paperSpec(wl, sch, 1024, 8, sz.PaperTx, sz.MultiFootprint, seed), fmt.Sprintf("%s/%s/8p", wl, sch))
		}
	}
	return s
}

// kvSchemes is the KV-serving experiment's default scheme set.
var kvSchemes = []config.Scheme{config.Unsec, config.WT, config.WTXBank, config.SuperMem}

// kvSpec is one -exp kv cell at eight shards, YCSB skew, 95/5
// read/update, on the out-of-order core.
func kvSpec(s config.Scheme, sz sizing, seed int64) bench.Spec {
	return bench.Spec{
		Base:           config.Default(),
		Workload:       "kv",
		Scheme:         s,
		TxBytes:        256,
		Transactions:   sz.KVRequests,
		Cores:          8,
		FootprintBytes: bench.DefaultOpts().FootprintBytes,
		Seed:           seed,
		CoreModel:      config.CoreOoO,
		KV:             workload.KVConfig{Keys: sz.KVKeys, Theta: 0.99},
	}
}

func kvZipf(seed int64, sz sizing) *simSuite {
	s := &simSuite{traces: []bench.Spec{kvSpec(config.Unsec, sz, seed)}}
	for _, sch := range kvSchemes {
		s.add(kvSpec(sch, sz, seed), fmt.Sprintf("kv/%s/8shards", sch))
	}
	return s
}

// specConfig is the system configuration a cell runs: the base
// template with the spec's core count, scheme and core model applied,
// as the bench runner assembles it.
func specConfig(spec bench.Spec) config.Config {
	cfg := spec.Base
	cfg.Cores = spec.Cores
	cfg.Scheme = spec.Scheme
	if spec.CoreModel != "" {
		cfg.CoreModel = spec.CoreModel
	}
	return cfg
}

func (s *simSuite) cells() []string { return s.names }

func (s *simSuite) setup(tr *tracer) (setupStat, error) {
	var st setupStat
	s.cache = bench.NewTraceCache()
	for _, spec := range s.traces {
		id := tr.begin("tracegen", catLayer)
		srcs, err := s.cache.Sources(spec)
		tr.end(id)
		if err != nil {
			return st, fmt.Errorf("record %s/%dB: %w", spec.Workload, spec.TxBytes, err)
		}
		for _, src := range srcs {
			ss := src.(*trace.SliceSource)
			st.ops += int64(ss.Len())
			if tr != nil {
				st.warmupOps += warmupOps(ss)
			}
		}
	}
	if _, misses := s.cache.Stats(); misses != int64(len(s.traces)) {
		return st, fmt.Errorf("set-up recorded %d traces, want %d", misses, len(s.traces))
	}
	return st, nil
}

// warmupOps counts the ops before the end-of-warmup marker.
func warmupOps(src *trace.SliceSource) int64 {
	var n int64
	for {
		op, ok := src.Next()
		if !ok || op.Kind == trace.Reset {
			return n
		}
		n++
	}
}

func (s *simSuite) run(i int, tr *tracer) (cell, error) {
	spec := s.specs[i]
	_, missesBefore := s.cache.Stats()
	srcs, err := s.cache.Sources(spec)
	if err != nil {
		return cell{}, err
	}
	if _, misses := s.cache.Stats(); misses != missesBefore {
		return cell{}, fmt.Errorf("trace recorded outside set-up")
	}
	var work int64
	for _, src := range srcs {
		work += int64(src.(*trace.SliceSource).Len())
	}
	id := tr.begin("core.new", catLayer)
	sys, err := core.NewSystem(specConfig(spec))
	tr.end(id)
	if err != nil {
		return cell{}, err
	}
	id = tr.begin("core.run", catLayer)
	m, err := sys.Run(srcs)
	tr.end(id)
	if err != nil {
		return cell{}, err
	}
	return cell{out: m, work: work, m: m, banks: sys.BankStats()}, nil
}

// check verifies that the cell completed every transaction its trace
// holds (a b-tree step that splits commits two), and at least the
// requested number.
func (s *simSuite) check(i int, c cell) error {
	spec := s.specs[i]
	srcs, err := s.cache.Sources(spec)
	if err != nil {
		return err
	}
	var txs uint64
	for _, src := range srcs {
		for op, ok := src.Next(); ok; op, ok = src.Next() {
			if op.Kind == trace.TxEnd {
				txs++
			}
		}
	}
	if c.m.Transactions != txs || txs < uint64(spec.Transactions*spec.Cores) {
		return fmt.Errorf("measured %d transactions; the trace holds %d for %d requested",
			c.m.Transactions, txs, spec.Transactions*spec.Cores)
	}
	return nil
}

// fuzzSuite runs the differential crash fuzzer, one cell per
// (structure, machine mode).
type fuzzSuite struct {
	params []crash.FuzzParams
	names  []string
}

// crashFuzz sweeps every structure across every registered machine
// mode, exhaustively, with nested crashes in recovery, on one worker.
func crashFuzz(seed int64, sz sizing) *fuzzSuite {
	s := &fuzzSuite{}
	for _, wl := range workload.Names {
		for _, mode := range crash.AllModes {
			s.params = append(s.params, crash.FuzzParams{
				Workload: wl,
				Steps:    sz.FuzzSteps,
				Seed:     seed,
				Nested:   true,
				Parallel: 1,
				Modes:    []machine.Mode{mode},
			})
			s.names = append(s.names, fmt.Sprintf("%s/%s", wl, mode))
		}
	}
	return s
}

func (s *fuzzSuite) cells() []string { return s.names }

// check has nothing to add: run already checked the verdict against
// Table 1.
func (s *fuzzSuite) check(int, cell) error { return nil }

// setup runs each (structure, mode) crash-free on the byte-accurate
// machine and verifies the final structure: the reference every crash
// point is judged against.
func (s *fuzzSuite) setup(tr *tracer) (setupStat, error) {
	for i, fp := range s.params {
		id := tr.begin("crash.reference", catLayer)
		_, err := crash.ReferenceRun(crash.Params{
			Mode:     fp.Modes[0],
			Workload: fp.Workload,
			Steps:    fp.Steps,
			Seed:     fp.Seed,
		}, nil)
		tr.end(id)
		if err != nil {
			return setupStat{}, fmt.Errorf("%s: %w", s.names[i], err)
		}
	}
	return setupStat{}, nil
}

// verdict is the pinned form of one mode's fuzz verdict: its counts in
// clear, plus a digest of the full verdict (every failing point and the
// minimized failure).
type verdict struct {
	Points         int    `json:"points"`
	Tested         int    `json:"tested"`
	Nested         int    `json:"nested"`
	Crashed        int    `json:"crashed"`
	Inconsistent   int    `json:"inconsistent"`
	RecoveryProbes int    `json:"recovery_probes"`
	ExpectedOK     bool   `json:"expected_ok"`
	Digest         string `json:"digest"`
}

func (s *fuzzSuite) run(i int, tr *tracer) (cell, error) {
	id := tr.begin("crash.fuzz", catLayer)
	res, err := crash.Fuzz(s.params[i])
	tr.end(id)
	if err != nil {
		return cell{}, err
	}
	if err := res.CheckTable1(); err != nil {
		return cell{}, err
	}
	v := res.Verdicts[0]
	full, err := json.Marshal(v)
	if err != nil {
		return cell{}, err
	}
	sum := sha256.Sum256(full)
	out := verdict{
		Points:         v.TotalPoints,
		Tested:         v.Tested,
		Nested:         v.NestedTested,
		Crashed:        v.Crashed,
		Inconsistent:   len(v.Inconsistent),
		RecoveryProbes: v.RecoveryProbes,
		ExpectedOK:     v.ExpectedOK,
		Digest:         hex.EncodeToString(sum[:]),
	}
	return cell{
		out:    out,
		work:   int64(v.Tested + v.NestedTested),
		points: int64(v.Tested),
		nested: int64(v.NestedTested),
		probes: int64(v.RecoveryProbes),
	}, nil
}
