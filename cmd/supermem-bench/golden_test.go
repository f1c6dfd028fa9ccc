//go:build !race

// The golden run takes seconds, but about a minute under the race
// detector, so race builds leave it out; the loop it drives is raced
// by TestRunLoop.

package main

import (
	"path/filepath"
	"strings"
	"testing"

	"supermem/internal/bench"
	"supermem/internal/golden"
)

// goldenArgs are the arguments testdata/golden was written with.
var goldenArgs = []string{"-exp", "all", "-transactions", "5", "-footprint", "65536", "-json"}

// TestGoldenArtifacts is the same-results check: every experiment's
// BENCH_<name>.json at a small scale must match its checked-in copy
// byte for byte. The second argument set selects the in-order core by
// its other name, the OoO window at width 1, which must reach the same
// results.
func TestGoldenArtifacts(t *testing.T) {
	dir, err := filepath.Abs(filepath.Join("testdata", "golden"))
	if err != nil {
		t.Fatal(err)
	}
	regen := "cd cmd/supermem-bench/testdata/golden && rm BENCH_*.json && go run ../.. " + strings.Join(goldenArgs, " ")
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"inorder", goldenArgs},
		{"ooo-width-1", append(goldenArgs[:len(goldenArgs):len(goldenArgs)], "-core", "ooo", "-ooo-width", "1")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Chdir(t.TempDir())
			if code := run(bench.Experiments(), tc.args); code != 0 {
				t.Fatalf("exit code %d, want 0", code)
			}
			golden.Check(t, dir, ".", regen)
		})
	}
}
