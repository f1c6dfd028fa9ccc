package bench

import (
	"bytes"
	"encoding/json"
	"testing"

	"supermem/internal/config"
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
	if rec := c.newRecorder(cellLabel(o.spec(tinyBase(), "array", config.Unsec, 256, 1))); rec != nil {
		t.Error("non-matching cell got a recorder")
	}
	r := NewRunner(2)
	r.Obs = c
	cells := []Spec{o.spec(tinyBase(), "array", config.Unsec, 256, 1)}
	if _, err := r.RunCells(cells); err != nil {
		t.Fatal(err)
	}
	if got := len(c.Cells()); got != 0 {
		t.Errorf("collected %d cells, want 0", got)
	}
}

// TestObsHistogramsPopulated checks a histogram-enabled run yields
// non-empty latency distributions with ordered quantiles.
func TestObsHistogramsPopulated(t *testing.T) {
	o := tinyOpts()
	o.Obs = &ObsCollector{Hist: true}
	r := o.newRunner()
	spec := o.spec(tinyBase(), "queue", config.SuperMem, 1024, 1)
	if _, err := r.RunCells([]Spec{spec}); err != nil {
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
	o := Opts{Transactions: 20, FootprintBytes: 1 << 20, Seed: 1}
	kv := o.spec(config.Default(), "kv", config.SuperMem, 256, 8)
	kv.Transactions = 40
	kv.CoreModel = config.CoreOoO
	kv.KV = workload.KVConfig{Keys: 512, Theta: 0.99}
	cells := []Spec{o.spec(config.Default(), "btree", config.SuperMem, 1024, 8), kv}
	ms, recs, err := NewRunner(2).RunObserved(cells)
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
