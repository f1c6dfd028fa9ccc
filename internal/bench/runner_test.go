package bench

import (
	"strings"
	"testing"

	"supermem/internal/config"
)

// TestParallelMatchesSerial is the contract that makes the parallel
// runner safe: a figure computed with one worker and with many workers
// must render byte-identical tables.
func TestParallelMatchesSerial(t *testing.T) {
	o := Opts{Transactions: 15, Warmup: 15, FootprintBytes: 128 << 10, Seed: 1}
	serial, parallel := o, o
	serial.Parallel = 1
	parallel.Parallel = 8

	s13, err := Fig13(tinyBase(), 1024, serial)
	if err != nil {
		t.Fatal(err)
	}
	p13, err := Fig13(tinyBase(), 1024, parallel)
	if err != nil {
		t.Fatal(err)
	}
	if s13.String() != p13.String() {
		t.Errorf("Fig13 serial vs parallel tables differ:\n%s\nvs\n%s", s13, p13)
	}

	sRed, sLat, err := Fig16(tinyBase(), serial)
	if err != nil {
		t.Fatal(err)
	}
	pRed, pLat, err := Fig16(tinyBase(), parallel)
	if err != nil {
		t.Fatal(err)
	}
	if sRed.String() != pRed.String() || sLat.String() != pLat.String() {
		t.Error("Fig16 serial vs parallel tables differ")
	}
}

// TestCachedTraceMatchesRebuilt verifies replaying a recorded stream is
// indistinguishable from regenerating it: the runner's metrics must
// equal direct Run (which rebuilds sources per call).
func TestCachedTraceMatchesRebuilt(t *testing.T) {
	o := tinyOpts()
	spec := o.spec(tinyBase(), "queue", config.SuperMem, 1024, 1)
	direct, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	o.Parallel = 2
	h0, m0 := CacheStats()
	// Two identical cells: the second replays the first's recording.
	ms, _, err := o.runCells([]Spec{spec, spec}, false)
	if err != nil {
		t.Fatal(err)
	}
	if ms[0] != direct || ms[1] != direct {
		t.Fatalf("cached replay diverged: direct %+v, cells %+v / %+v", direct, ms[0], ms[1])
	}
	h1, m1 := CacheStats()
	if hits, misses := h1-h0, m1-m0; misses != 1 || hits != 1 {
		t.Fatalf("cache stats = %d hits / %d misses, want 1/1", hits, misses)
	}
}

// TestRunnerSharesTracesAcrossSchemes asserts the headline cache win: a
// six-scheme row builds its op streams once, not six times.
func TestRunnerSharesTracesAcrossSchemes(t *testing.T) {
	o := Opts{Transactions: 10, Warmup: 10, FootprintBytes: 64 << 10, Seed: 1, Parallel: 4}
	var cells []Spec
	for _, s := range config.AllSchemes() {
		cells = append(cells, o.spec(tinyBase(), "array", s, 256, 1))
	}
	h0, m0 := CacheStats()
	if _, _, err := o.runCells(cells, false); err != nil {
		t.Fatal(err)
	}
	h1, m1 := CacheStats()
	hits, misses := h1-h0, m1-m0
	if misses != 1 {
		t.Errorf("6-scheme row built sources %d times, want 1", misses)
	}
	if hits != int64(len(cells)-1) {
		t.Errorf("cache hits = %d, want %d", hits, len(cells)-1)
	}
}

// TestTraceCacheEvictsAfterPlannedUses verifies the memory bound: once
// every planned replay of a key has happened, the cache drops it.
func TestTraceCacheEvictsAfterPlannedUses(t *testing.T) {
	o := Opts{Transactions: 5, Warmup: 5, FootprintBytes: 64 << 10, Seed: 1}
	spec := o.spec(tinyBase(), "array", config.Unsec, 256, 1)
	c := NewTraceCache()
	c.Plan([]Spec{spec, spec})
	for i := 0; i < 2; i++ {
		if _, err := c.Sources(spec); err != nil {
			t.Fatal(err)
		}
	}
	c.mu.Lock()
	left := len(c.entries)
	c.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d cache entries left after last planned use, want 0", left)
	}
}

// TestRunCellsErrorPropagation: a failing cell must surface its error,
// deterministically, and not panic the pool.
func TestRunCellsErrorPropagation(t *testing.T) {
	o := Opts{Transactions: 5, Warmup: 5, FootprintBytes: 64 << 10, Seed: 1}
	cells := []Spec{
		o.spec(tinyBase(), "array", config.Unsec, 256, 1),
		o.spec(tinyBase(), "nope", config.WT, 256, 1),
		o.spec(tinyBase(), "queue", config.SuperMem, 256, 1),
	}
	for _, workers := range []int{1, 4} {
		o.Parallel = workers
		_, _, err := o.runCells(cells, false)
		if err == nil || !strings.Contains(err.Error(), "unknown") {
			t.Fatalf("workers=%d: runCells error = %v, want unknown-workload error", workers, err)
		}
		if !strings.Contains(err.Error(), "nope") {
			t.Fatalf("workers=%d: error %v does not name the failing cell", workers, err)
		}
	}
}

// TestTable1ParallelMatchesSerial: the crash sweep classifies stages
// identically at any worker count.
func TestTable1ParallelMatchesSerial(t *testing.T) {
	serial, err := Table1Parallel(1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Table1Parallel(8)
	if err != nil {
		t.Fatal(err)
	}
	if serial.String() != parallel.String() {
		t.Errorf("Table1 serial vs parallel differ:\n%s\nvs\n%s", serial, parallel)
	}
}
