package bench

import (
	"encoding/json"
	"testing"

	"supermem/internal/config"
)

func smallMLPOpts() (Opts, MLPOpts) {
	o := Opts{Transactions: 12, FootprintBytes: 1 << 20, Seed: 3}
	mo := MLPOpts{
		Schemes: []config.Scheme{config.WT, config.SuperMem},
		Widths:  []int{1, 4},
		MSHRs:   []int{2},
		// Keep the prefetch cell: it exercises the counter+data ride-along
		// under a real workload.
		PrefetchDegrees: []int{2},
		TxBytes:         256,
	}
	return o, mo
}

// TestMLPDeterministic: the MLP artifact must be byte-identical at any
// worker parallelism — the OoO model's MSHR file and prefetcher are
// arithmetic over simulated cycles, not host scheduling.
func TestMLPDeterministic(t *testing.T) {
	cfg := config.Default()
	o, mo := smallMLPOpts()

	o.Parallel = 1
	serial, err := MLP(cfg, o, mo)
	if err != nil {
		t.Fatal(err)
	}
	o.Parallel = 4
	parallel, err := MLP(cfg, o, mo)
	if err != nil {
		t.Fatal(err)
	}
	sj, _ := json.Marshal(serial)
	pj, _ := json.Marshal(parallel)
	if string(sj) != string(pj) {
		t.Fatalf("serial and parallel MLP artifacts differ:\n%s\n%s", sj, pj)
	}

	// Grid shape: (inorder + 2 widths + 1 MSHR + 1 prefetch) x (Unsec + 2
	// schemes).
	if want := 5 * 3; len(serial.Cells) != want {
		t.Fatalf("got %d cells, want %d", len(serial.Cells), want)
	}
	for _, c := range serial.Cells {
		if c.Transactions == 0 || c.AvgCycles == 0 {
			t.Errorf("cell %+v: empty metrics", c)
		}
		if c.Scheme == "Unsec" && c.WriteAmp != 1 {
			t.Errorf("cell %+v: Unsec write amp %v, want 1", c, c.WriteAmp)
		}
		if c.Scheme != "Unsec" && c.WriteAmp < 1 {
			t.Errorf("cell %+v: scheme writes less than Unsec (amp %v)", c, c.WriteAmp)
		}
		if c.Model == config.CoreInOrder && (c.MSHRMerges != 0 || c.PrefetchIssued != 0) {
			t.Errorf("cell %+v: in-order model reported MSHR/prefetch activity", c)
		}
	}
}

// TestMLPVariantsAtWidest: the MSHR and prefetch sweeps run at the
// widest width, whatever order the widths are given in.
func TestMLPVariantsAtWidest(t *testing.T) {
	mo := MLPOpts{Widths: []int{4, 1}, MSHRs: []int{2}, PrefetchDegrees: []int{2}}.withDefaults()
	swept := 0
	for _, v := range mo.variants() {
		if v.mshrs > 0 || v.degree > 0 {
			swept++
			if v.width != 4 {
				t.Errorf("variant %+v: swept at width %d, want 4", v, v.width)
			}
		}
	}
	if swept != 2 {
		t.Fatalf("got %d MSHR/prefetch variants, want 2", swept)
	}
}

// TestMLPSharesTraces: the whole grid is one workload recording — every
// cell after the first must hit the trace cache (the reason the model
// knobs are unkeyed).
func TestMLPSharesTraces(t *testing.T) {
	h0, m0 := CacheStats()
	o, mo := smallMLPOpts()
	o.Parallel = 1
	res, err := MLP(config.Default(), o, mo)
	if err != nil {
		t.Fatal(err)
	}
	h1, m1 := CacheStats()
	if misses := m1 - m0; misses != 1 {
		t.Fatalf("grid recorded %d traces, want 1 (model/scheme variants must share)", misses)
	}
	if hits := h1 - h0; hits != int64(len(res.Cells)-1) {
		t.Fatalf("grid hit the cache %d times, want %d", hits, len(res.Cells)-1)
	}
}

// TestMLPWidthHelps: the headline effect at experiment scale — widening
// the window reduces SuperMem's average latency on the read-bound
// workload.
func TestMLPWidthHelps(t *testing.T) {
	o, mo := smallMLPOpts()
	o.Transactions = 24
	o.Parallel = 2
	res, err := MLP(config.Default(), o, mo)
	if err != nil {
		t.Fatal(err)
	}
	var w1, w4 float64
	for _, c := range res.Cells {
		if c.Scheme == "SuperMem" && c.Model == config.CoreOoO && c.MSHRs == 0 && c.Prefetch == 0 {
			switch c.Width {
			case 1:
				w1 = c.AvgCycles
			case 4:
				w4 = c.AvgCycles
			}
		}
	}
	if w1 == 0 || w4 == 0 {
		t.Fatalf("width cells missing from grid: w1=%v w4=%v", w1, w4)
	}
	if w4 >= w1 {
		t.Fatalf("width 4 (%v cycles) not faster than width 1 (%v cycles)", w4, w1)
	}
}
