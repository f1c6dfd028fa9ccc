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
// allocate at most maxBytes. It records 12.21 MB since the tracing
// memory moved from one map entry and slice per 64-byte line to 4 KiB
// pages (17.49 MB before); the bound leaves about 10% of headroom. CI's
// bench-smoke job fails on any regression past it.
func TestBuildSourcesAllocBytes(t *testing.T) {
	const maxBytes = 13_400_000
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
