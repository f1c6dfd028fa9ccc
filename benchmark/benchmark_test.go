package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"

	"supermem/internal/bench"
	"supermem/internal/config"
	"supermem/internal/workload"
)

// testSize is a reduced sizing that keeps the whole file near a few
// seconds.
var testSize = sizing{
	PaperTx:        5,
	PaperFootprint: 64 << 10,
	MultiFootprint: 64 << 10,
	KVKeys:         512,
	KVRequests:     50,
	FuzzSteps:      1,
}

// runPass sets a workload up and runs one pass, returning the cells.
func runPass(t *testing.T, s suite) []cell {
	t.Helper()
	if _, err := s.setup(nil); err != nil {
		t.Fatal(err)
	}
	out := make([]cell, len(s.cells()))
	for i, name := range s.cells() {
		c, err := s.run(i, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := s.check(i, c); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[i] = c
	}
	return out
}

// The benchmark must simulate what the CLI simulates: its cells'
// latencies equal the figure tables bench builds for the same specs.
func TestCellsMatchFigures(t *testing.T) {
	t.Parallel()
	const seed = 3
	opts := bench.Opts{Transactions: testSize.PaperTx, FootprintBytes: testSize.PaperFootprint, Seed: seed, Parallel: 1}
	p1 := runPass(t, paper1c(seed, testSize))
	i := 0
	for _, tx := range []int{256, 1024, 4096} {
		fig, err := bench.Fig13(config.Default(), tx, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, wl := range workload.Names {
			for _, sch := range config.AllSchemes() {
				if got, want := p1[i].m.AvgTxCycles(), fig.Cell(wl, sch.String()); got != want {
					t.Errorf("paper-1c %s/%s/%dB: %v cycles, Fig13 %v", wl, sch, tx, got, want)
				}
				i++
			}
		}
	}

	opts.FootprintBytes = testSize.MultiFootprint
	fig14, err := bench.Fig14(config.Default(), 8, opts)
	if err != nil {
		t.Fatal(err)
	}
	p8 := runPass(t, paper8p(seed, testSize))
	i = 0
	for _, wl := range workload.Names {
		for _, sch := range paper8pSchemes {
			if got, want := p8[i].m.AvgTxCycles(), fig14.Cell(wl, sch.String()); got != want {
				t.Errorf("paper-8p %s/%s: %v cycles, Fig14 %v", wl, sch, got, want)
			}
			i++
		}
	}

	off := false
	kv, err := bench.KVServe(config.Default(), bench.Opts{FootprintBytes: bench.DefaultOpts().FootprintBytes, Seed: seed, Parallel: 1},
		bench.KVOpts{Shards: []int{8}, Schemes: kvSchemes, Thetas: []float64{0.99}, Keys: testSize.KVKeys,
			Requests: testSize.KVRequests, TxBytes: 256, UncoreVariants: &off, CoreModel: config.CoreOoO})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range runPass(t, kvZipf(seed, testSize)) {
		if got, want := c.m.AvgTxCycles(), kv.Cells[i].AvgCycles; got != want {
			t.Errorf("kv-zipf %s: %v cycles, KVServe %v", kv.Cells[i].Scheme, got, want)
		}
	}
}

func measureTest(t *testing.T, name string, traced bool) (*result, time.Duration) {
	t.Helper()
	start := time.Now()
	res, err := measure(options{workload: name, seed: 1, seconds: 1e-3, traced: traced, size: testSize}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.report.Correct || res.report.Failed != 0 || res.report.Attempted == 0 {
		t.Fatalf("%s traced=%v: report %+v", name, traced, res.report)
	}
	return res, time.Since(start)
}

// benchmarkJSON reads the metric lists the result line must carry.
func benchmarkJSON(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var spec struct {
		EndToEnd []named `json:"end_to_end"`
		PerLayer []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func checkMetrics(t *testing.T, label string, got map[string]metric, want map[string]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics printed, BENCHMARK.json names %d", label, len(got), len(want))
	}
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			t.Errorf("%s: metric %s not printed", label, name)
		} else if m.Unit != unit {
			t.Errorf("%s: metric %s printed in %q, BENCHMARK.json says %q", label, name, m.Unit, unit)
		}
	}
}

// A traced run simulates exactly what an untraced one does, its spans
// account for its wall time, and each mode prints the metrics
// BENCHMARK.json names.
func TestTracedRun(t *testing.T) {
	endToEnd, perLayer := benchmarkJSON(t)
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			plain, _ := measureTest(t, name, false)
			traced, wall := measureTest(t, name, true)
			checkMetrics(t, "untraced", plain.report.Metrics, endToEnd)
			checkMetrics(t, "traced", traced.report.Metrics, perLayer)
			for i := range plain.outputs {
				if !bytes.Equal(plain.outputs[i], traced.outputs[i]) {
					t.Errorf("cell %d: traced output differs:\n%s\n%s", i, plain.outputs[i], traced.outputs[i])
				}
			}

			var sum, root time.Duration
			for i, self := range selfTimes(traced.spans) {
				if self < 0 {
					t.Errorf("span %s has self time %v", traced.spans[i].name, self)
				}
				sum += self
				if traced.spans[i].parent < 0 {
					root += traced.spans[i].dur()
				}
			}
			if sum != root || root > wall {
				t.Errorf("self times sum to %v, root span %v, wall %v", sum, root, wall)
			}
			if m := traced.report.Metrics["cell.p50_ms"].Value; m <= 0 {
				t.Errorf("cell.p50_ms = %v", m)
			}
		})
	}
}

// quartiles must cut where Python's statistics.quantiles(n=4) does.
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles(1, 2) = %v %v %v, want 0.75 1.5 2.25", q1, q2, q3)
	}
}
