package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"supermem/internal/golden"
)

// goldenArgs are the arguments testdata/golden was written with (CI's
// crash sweep).
var goldenArgs = []string{"-steps", "6", "-maxpoints", "24", "-nested", "-seed", "1", "-json"}

// TestGoldenArtifact is the same-results check: the differential crash
// matrix must match its checked-in copy byte for byte.
func TestGoldenArtifact(t *testing.T) {
	dir, err := filepath.Abs(filepath.Join("testdata", "golden"))
	if err != nil {
		t.Fatal(err)
	}
	t.Chdir(t.TempDir())
	if code := run(goldenArgs); code != 0 {
		t.Fatalf("exit code %d, want 0", code)
	}
	golden.Check(t, dir, ".", "cd cmd/supermem-crash/testdata/golden && go run ../.. "+strings.Join(goldenArgs, " "))
}

// TestUnwritableArtifactFails: a run that cannot write BENCH_crash.json
// must not exit 0.
func TestUnwritableArtifactFails(t *testing.T) {
	t.Chdir(t.TempDir())
	if err := os.Mkdir("BENCH_crash.json", 0o755); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"-workload", "array", "-steps", "2", "-maxpoints", "4", "-json"}); code != 1 {
		t.Errorf("exit code %d, want 1", code)
	}
}
