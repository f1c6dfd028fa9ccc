//go:build !race

// The race detector changes what the runtime allocates, so race builds
// leave the allocation gate out.

package bench

import (
	"runtime"
	"testing"

	"supermem/internal/config"
)

// TestBuildSourcesAllocBytes is the set-up allocation gate: one
// BuildSources call for BenchmarkBuildSources' 8-core array cell must
// allocate at most maxBytes. It records 8.03 MB since its 122,200 ops
// are recorded packed at 9 bytes rather than as 24-byte trace.Ops and
// each tracing page is one 4096-byte allocation (12.21 MB before; 17.49
// MB before the tracing memory moved from one map entry per 64-byte
// line to 4 KiB pages); the bound leaves about 10% of headroom. CI's
// bench-smoke job fails on any regression past it.
func TestBuildSourcesAllocBytes(t *testing.T) {
	const maxBytes = 8_840_000
	spec := tinyOpts().spec(tinyBase(), "array", config.SuperMem, 1024, 8)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := BuildSources(spec); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("BuildSources allocated %d bytes (bound %d)", got, maxBytes)
	if got > maxBytes {
		t.Fatalf("BuildSources allocated %d bytes, want <= %d", got, maxBytes)
	}
}

// TestBuildSourcesResidentBytes holds recorded traces to 9 bytes per
// op: after one BuildSources call for BenchmarkBuildSources' cell, the
// live heap may grow by no more than its streams at 9 bytes per op,
// plus, per stream, its slice header and the allocator's rounding of
// its array up to a whole 8 KiB page. Each stream must be exactly
// sized. At 24 bytes per op the cell's streams would hold 2.9 MB.
func TestBuildSourcesResidentBytes(t *testing.T) {
	spec := tinyOpts().spec(tinyBase(), "array", config.SuperMem, 1024, 8)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	streams, err := BuildSources(spec)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	ops := 0
	for i, s := range streams {
		if cap(s) != len(s) {
			t.Errorf("stream %d: %d ops with capacity %d, want exact size", i, len(s), cap(s))
		}
		ops += len(s)
	}
	live := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	bound := int64(9*ops + len(streams)*(24+8192))
	t.Logf("%d ops hold %d live bytes, %.2f per op (bound %d)", ops, live, float64(live)/float64(ops), bound)
	if live > bound {
		t.Fatalf("%d ops hold %d live bytes, want <= %d", ops, live, bound)
	}
	runtime.KeepAlive(streams)
}
