package bench

import (
	"bytes"
	"encoding/json"
	"maps"
	"testing"

	"supermem/internal/config"
	"supermem/internal/machine"
	"supermem/internal/obs"
	"supermem/internal/workload"
)

// runObserved runs a tiny Fig13 grid with full observability attached
// and returns the rendered table, the histogram block JSON, and the
// serialized trace.
func runObserved(t *testing.T, parallel int) (table, hists, trace []byte) {
	t.Helper()
	o := Opts{Transactions: 15, Warmup: 15, FootprintBytes: 128 << 10, Seed: 1, Parallel: parallel}
	o.Obs = &ObsCollector{Window: 1024, Hist: true, TraceLabel: "btree/SuperMem"}
	tab, err := Fig13(tinyBase(), 1024, o)
	if err != nil {
		t.Fatal(err)
	}
	h, err := json.MarshalIndent(o.Obs.Cells(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	sections := o.Obs.TraceSections()
	if len(sections) != 1 {
		t.Fatalf("trace sections = %d, want 1", len(sections))
	}
	var buf bytes.Buffer
	if err := obs.WriteTrace(&buf, sections...); err != nil {
		t.Fatal(err)
	}
	return []byte(tab.String()), h, buf.Bytes()
}

// TestObsParallelMatchesSerial extends the determinism contract to the
// observability layer: metrics tables, histogram summaries, and trace
// bytes must be identical at any worker count.
func TestObsParallelMatchesSerial(t *testing.T) {
	sTab, sHist, sTrace := runObserved(t, 1)
	pTab, pHist, pTrace := runObserved(t, 8)
	if !bytes.Equal(sTab, pTab) {
		t.Errorf("tables differ:\n%s\nvs\n%s", sTab, pTab)
	}
	if !bytes.Equal(sHist, pHist) {
		t.Errorf("histogram blocks differ:\n%s\nvs\n%s", sHist, pHist)
	}
	if !bytes.Equal(sTrace, pTrace) {
		t.Errorf("traces differ (%d vs %d bytes)", len(sTrace), len(pTrace))
	}
	// The traced cell must have produced the span families the issue
	// calls out: bank reservations, queue admissions, and CWC removals.
	sum, err := obs.ReadTraceSummary(bytes.NewReader(sTrace))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"bank write", "wq data", "cwc remove"} {
		if sum.ByName[name] == 0 {
			t.Errorf("trace has no %q events", name)
		}
	}
	if sum.Spans == 0 || sum.Counters == 0 {
		t.Errorf("trace summary %+v missing spans or counters", sum)
	}
}

// TestObsCollectorSkipsUntracedCells verifies the zero-cost contract:
// with histograms off and no matching trace label, cells get nil
// recorders and nothing is collected.
func TestObsCollectorSkipsUntracedCells(t *testing.T) {
	c := &ObsCollector{TraceLabel: "btree/SuperMem"}
	o := tinyOpts()
	cells := []Spec{o.spec(tinyBase(), "array", config.Unsec, 256, 1)}
	if rec := c.newCell(cellLabel(cells[0]), 256, 0).Rec; rec != nil {
		t.Error("non-matching cell got a recorder")
	}
	o.Parallel = 2
	o.Obs = c
	if _, _, err := o.runCells(cells, false); err != nil {
		t.Fatal(err)
	}
	if got := len(c.Cells()); got != 0 {
		t.Errorf("collected %d cells, want 0", got)
	}
}

// TestCellLabelNamesCoreWorkloads: a cell whose cores run different
// workloads is labelled by all of them, so the attack's DoS cells read
// apart from their victim-alone baselines.
func TestCellLabelNamesCoreWorkloads(t *testing.T) {
	cases := []struct {
		spec Spec
		want string
	}{
		{Spec{Workload: "array", Scheme: config.WT, Cores: 1}, "array/WT"},
		{Spec{Workload: "array", Scheme: config.WT, Cores: 8}, "array/WT"},
		{Spec{Workload: "array", Scheme: config.WT, Cores: 2, CoreWorkloads: [4]string{"hotbank"}}, "hotbank+array/WT"},
		{Spec{Workload: "array", Scheme: config.WT, Cores: 1, CoreWorkloads: [4]string{"array"}}, "array/WT"},
		{Spec{Workload: "btree", Scheme: config.SuperMem, Cores: 3, CoreWorkloads: [4]string{"", "queue"}}, "btree+queue/SuperMem"},
	}
	for _, c := range cases {
		if got := cellLabel(c.spec); got != c.want {
			t.Errorf("cellLabel(%d cores, %q, %v) = %q, want %q", c.spec.Cores, c.spec.Workload, c.spec.CoreWorkloads, got, c.want)
		}
	}

	o := Opts{Transactions: 5, FootprintBytes: 64 << 10, Seed: 1, Obs: &ObsCollector{Hist: true}}
	ao := AttackOpts{Schemes: []config.Scheme{config.WT}, Steps: 8, LoopIterations: 1, CrashSteps: 2, Modes: []machine.Mode{machine.WTRegister}}
	if _, err := AttackSweep(config.Default(), o, ao); err != nil {
		t.Fatal(err)
	}
	labels := map[string]int{}
	for _, c := range o.Obs.Cells() {
		labels[c.Label]++
	}
	// Per scheme: the hammer triplet, then the DoS triplet's
	// victim-alone baseline and its unmitigated and wear-leveled
	// attacked cells.
	want := map[string]int{"ctrhammer/WT": 3, "array/WT": 1, "hotbank+array/WT": 2}
	if !maps.Equal(labels, want) {
		t.Errorf("attack cell labels %v, want %v", labels, want)
	}
}

// TestObsHistogramsPopulated checks a histogram-enabled run yields
// non-empty latency distributions with ordered quantiles.
func TestObsHistogramsPopulated(t *testing.T) {
	o := tinyOpts()
	o.Obs = &ObsCollector{Hist: true}
	spec := o.spec(tinyBase(), "queue", config.SuperMem, 1024, 1)
	if _, _, err := o.runCells([]Spec{spec}, false); err != nil {
		t.Fatal(err)
	}
	cs := o.Obs.Cells()
	if len(cs) != 1 {
		t.Fatalf("collected %d cells, want 1", len(cs))
	}
	tx := cs[0].Hist.TxLatency
	if tx.Count == 0 {
		t.Fatal("tx latency histogram is empty")
	}
	if !(tx.Min <= tx.P50 && tx.P50 <= tx.P95 && tx.P95 <= tx.P99 && tx.P99 <= tx.Max) {
		t.Errorf("quantiles out of order: %+v", tx)
	}
}

// TestHistogramsCoverMeasuredTransactions: each core's histograms
// restart at that core's own warmup end, like its metrics block, so in
// a multi-core cell the per-core tx-latency counts sum to the measured
// transactions and the -hist snapshot counts every one of them.
func TestHistogramsCoverMeasuredTransactions(t *testing.T) {
	o := Opts{Transactions: 20, FootprintBytes: 1 << 20, Seed: 1, Parallel: 2}
	kv := o.spec(config.Default(), "kv", config.SuperMem, 256, 8)
	kv.Transactions = 40
	kv.CoreModel = config.CoreOoO
	kv.KV = workload.KVConfig{Keys: 512, Theta: 0.99}
	cells := []Spec{o.spec(config.Default(), "btree", config.SuperMem, 1024, 8), kv}
	ms, recs, err := o.runCells(cells, true)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range ms {
		var sum uint64
		for core := 0; core < cells[i].Cores; core++ {
			if h := recs[i].CoreTxHist(core); h != nil {
				sum += h.Count()
			}
		}
		if sum != m.Transactions {
			t.Errorf("%s: per-core tx histograms hold %d transactions, metrics measured %d", cells[i].Workload, sum, m.Transactions)
		}
		if got := recs[i].Snapshot().TxLatency.Count; got != m.Transactions {
			t.Errorf("%s: tx_latency snapshot counts %d, metrics measured %d", cells[i].Workload, got, m.Transactions)
		}
	}
}

// TestEveryTimingCellObserved: every experiment with timing cells hands
// each of them to the collector once, numbered in cell order, and
// observing changes no result. A figure grid and the kv, mlp, attack,
// integrity and faultsweep experiments run at tiny sizing without a
// collector and with a Hist one, at 1 and 4 workers; all four runs must
// marshal to the same JSON.
func TestEveryTimingCellObserved(t *testing.T) {
	cfg := config.Default()
	sized := Opts{Transactions: 5, FootprintBytes: 64 << 10, Seed: 1}
	// Each run returns the experiment's result and its timing-cell
	// count, read off the result wherever it reports every cell.
	exps := []struct {
		name string
		run  func(o Opts) (result any, cells int, err error)
	}{
		{"fig13", func(o Opts) (any, int, error) {
			tab, err := Fig13(tinyBase(), 256, o)
			return tab, len(workload.Names) * len(config.AllSchemes()), err
		}},
		{"kv", func(o Opts) (any, int, error) {
			r, err := KVServe(cfg, o, KVOpts{Shards: []int{1, 2}, Schemes: []config.Scheme{config.Unsec, config.SuperMem}, Thetas: []float64{0.99}, Keys: 128})
			if err != nil {
				return nil, 0, err
			}
			return r, len(r.Cells), nil
		}},
		{"mlp", func(o Opts) (any, int, error) {
			r, err := MLP(cfg, o, MLPOpts{Schemes: []config.Scheme{config.SuperMem}, Widths: []int{1, 2}, MSHRs: []int{2}, PrefetchDegrees: []int{2}, TxBytes: 256})
			if err != nil {
				return nil, 0, err
			}
			return r, len(r.Cells), nil
		}},
		{"attack", func(o Opts) (any, int, error) {
			r, err := AttackSweep(cfg, o, AttackOpts{Schemes: []config.Scheme{config.SuperMem}, Steps: 8, LoopIterations: 1, CrashSteps: 2, Modes: []machine.Mode{machine.WTRegister}})
			if err != nil {
				return nil, 0, err
			}
			// Each hammer pair also runs its benign twin, and each DoS
			// pair its victim-alone baseline.
			return r, len(r.Hammer)*3/2 + len(r.DoS)*3/2, nil
		}},
		{"integrity", func(o Opts) (any, int, error) {
			r, err := IntegritySweep(cfg, o, IntegrityOpts{Workloads: []string{"array"}, Steps: 2, CrashPoints: []int{-1}, Transactions: 5})
			if err != nil {
				return nil, 0, err
			}
			return r, len(r.Timing), nil
		}},
		{"faultsweep", func(o Opts) (any, int, error) {
			r, err := FaultSweep(cfg, o, FaultSweepOpts{Workloads: []string{"array"}, Steps: 2, PlanSeeds: []int64{1}, CrashPoints: []int{-1}})
			// The quarantine cell is the sweep's one timing cell.
			return r, 1, err
		}},
	}
	for _, e := range exps {
		t.Run(e.name, func(t *testing.T) {
			var want []byte
			for _, parallel := range []int{1, 4} {
				for _, hist := range []bool{false, true} {
					o := sized
					o.Parallel = parallel
					if hist {
						o.Obs = &ObsCollector{Hist: true}
					}
					res, n, err := e.run(o)
					if err != nil {
						t.Fatal(err)
					}
					got, err := json.Marshal(res)
					if err != nil {
						t.Fatal(err)
					}
					if want == nil {
						want = got
					} else if !bytes.Equal(got, want) {
						t.Errorf("parallel %d, hist %v: result differs from the serial unobserved run:\n%s\nvs\n%s", parallel, hist, got, want)
					}
					if !hist {
						continue
					}
					cells := o.Obs.Cells()
					if len(cells) != n {
						t.Errorf("parallel %d: %d captures, want one per timing cell (%d)", parallel, len(cells), n)
					}
					for i, c := range cells {
						if c.Cell != i {
							t.Errorf("parallel %d: capture %d (%s) is numbered cell %d", parallel, i, c.Label, c.Cell)
						}
					}
				}
			}
		})
	}
}
