package bench

import (
	"slices"
	"strings"
	"testing"

	"supermem/internal/config"
)

func TestDefaultOptsSane(t *testing.T) {
	o := DefaultOpts()
	if o.Transactions <= 0 || o.FootprintBytes == 0 {
		t.Fatalf("DefaultOpts = %+v", o)
	}
}

func TestWarmupStepsPerWorkload(t *testing.T) {
	base := Spec{TxBytes: 1024, FootprintBytes: 1 << 20}
	for _, wl := range []string{"btree", "rbtree", "hashtable"} {
		s := base
		s.Workload = wl
		if got := warmupSteps(s, s.Workload); got != 1024 {
			t.Errorf("%s warmup = %d, want footprint/tx = 1024", wl, got)
		}
	}
	s := base
	s.Workload = "queue"
	if got := warmupSteps(s, s.Workload); got != 512 {
		t.Errorf("queue warmup = %d, want items/2 = 512", got)
	}
	s.Workload = "array"
	if got := warmupSteps(s, s.Workload); got != 32 {
		t.Errorf("array warmup = %d, want 32", got)
	}
	s.Warmup = 7
	if got := warmupSteps(s, s.Workload); got != 7 {
		t.Errorf("explicit warmup ignored: %d", got)
	}
}

// TestWarmupSizesByCoreWorkload: a core whose CoreWorkloads entry
// overrides the spec's workload is warmed up for its own workload, so
// a queue core gets the same trace whether the spec's workload is
// "queue" or another workload with "queue" on that core.
func TestWarmupSizesByCoreWorkload(t *testing.T) {
	spec := Spec{
		Base:           config.Default(),
		Workload:       "array",
		Scheme:         config.SuperMem,
		TxBytes:        1024,
		Transactions:   4,
		Cores:          2,
		FootprintBytes: 64 << 10,
		Seed:           1,
		CoreWorkloads:  [4]string{"", "queue"},
	}
	mixed, err := BuildSources(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Workload, spec.CoreWorkloads = "queue", [4]string{}
	queue, err := BuildSources(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(mixed[1], queue[1]) {
		t.Fatalf("core 1 (queue) trace depends on the spec's workload: %d ops vs %d", len(mixed[1]), len(queue[1]))
	}
}

func TestFig14SmallShape(t *testing.T) {
	o := Opts{Transactions: 15, Warmup: 20, FootprintBytes: 128 << 10, Seed: 1}
	tbl, err := Fig14(tinyBase(), 2, o)
	if err != nil {
		t.Fatal(err)
	}
	n := tbl.Normalize("Unsec")
	for _, wl := range n.RowLabels() {
		if wt := n.Cell(wl, "WT"); wt <= 1.0 {
			t.Errorf("%s: 2-program WT = %.2f, want > 1", wl, wt)
		}
	}
}

func TestFig16SmallShape(t *testing.T) {
	o := Opts{Transactions: 15, Warmup: 15, FootprintBytes: 128 << 10, Seed: 1}
	red, lat, err := Fig16(tinyBase(), o)
	if err != nil {
		t.Fatal(err)
	}
	if red.Rows() != 5 || lat.Rows() != 5 {
		t.Fatal("fig16 tables incomplete")
	}
	// Longer queues must not coalesce less (allowing small noise).
	for _, wl := range red.RowLabels() {
		small := red.Cell(wl, "wq8")
		large := red.Cell(wl, "wq128")
		if large+5 < small {
			t.Errorf("%s: coalescing shrank with queue size: wq8=%.1f%% wq128=%.1f%%", wl, small, large)
		}
	}
}

func TestFig17SmallShape(t *testing.T) {
	o := Opts{Transactions: 15, Warmup: 30, FootprintBytes: 256 << 10, Seed: 1}
	hit, exec, err := Fig17(tinyBase(), o)
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range hit.RowLabels() {
		small := hit.Cell(wl, "1KB")
		large := hit.Cell(wl, "4MB")
		if large+0.02 < small {
			t.Errorf("%s: hit rate shrank with cache size: %.3f -> %.3f", wl, small, large)
		}
		if small < 0 || large > 1 {
			t.Errorf("%s: hit rates out of range", wl)
		}
	}
	if exec.Rows() != 5 {
		t.Fatal("fig17b incomplete")
	}
}

func TestAblationPlacementOrdering(t *testing.T) {
	o := Opts{Transactions: 25, Warmup: 25, FootprintBytes: 256 << 10, Seed: 1}
	tbl, err := AblationPlacement(tinyBase(), o)
	if err != nil {
		t.Fatal(err)
	}
	// Adding CWC must not hurt, per placement.
	for _, wl := range tbl.RowLabels() {
		for _, p := range []string{"SingleBank", "SameBank", "XBank"} {
			plain := tbl.Cell(wl, p)
			cwc := tbl.Cell(wl, p+"+CWC")
			if cwc > plain*1.1 {
				t.Errorf("%s: %s+CWC (%.0f) much slower than %s (%.0f)", wl, p, cwc, p, plain)
			}
		}
	}
}

func TestAblationTxSizeCoalescingGrows(t *testing.T) {
	o := Opts{Transactions: 20, Warmup: 20, FootprintBytes: 256 << 10, Seed: 1}
	tbl, err := AblationTxSizeCoalescing(tinyBase(), o)
	if err != nil {
		t.Fatal(err)
	}
	grew := 0
	for _, wl := range tbl.RowLabels() {
		if tbl.Cell(wl, "4096B") > tbl.Cell(wl, "256B") {
			grew++
		}
	}
	if grew < 3 {
		t.Fatalf("coalescing grew with tx size for only %d/5 workloads", grew)
	}
}

func TestBuildSourcesErrors(t *testing.T) {
	spec := Opts{Transactions: 1, Warmup: 1, FootprintBytes: 1 << 20}.spec(tinyBase(), "nope", config.Unsec, 256, 1)
	if _, err := BuildSources(spec); err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Fatalf("BuildSources(nope) err = %v", err)
	}
}

func TestRunInvalidConfig(t *testing.T) {
	bad := tinyBase()
	bad.Banks = 3
	spec := Opts{Transactions: 1, Warmup: 1, FootprintBytes: 1 << 20}.spec(bad, "array", config.Unsec, 256, 1)
	if _, err := Run(spec); err == nil {
		t.Fatal("Run accepted invalid config")
	}
}
