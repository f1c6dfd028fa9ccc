package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"supermem/internal/crash"
	"supermem/internal/machine"
	"supermem/internal/workload"
)

// goldenCrashMatrix decodes the crash experiment's golden artifact.
func goldenCrashMatrix(t *testing.T) CrashMatrix {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "cmd", "supermem-bench", "testdata", "golden", "BENCH_crash.json"))
	if err != nil {
		t.Fatal(err)
	}
	var a struct {
		Result CrashMatrix `json:"result"`
	}
	if err := json.Unmarshal(data, &a); err != nil {
		t.Fatal(err)
	}
	if len(a.Result) != len(workload.Names) {
		t.Fatalf("golden matrix covers %d workloads, want %d", len(a.Result), len(workload.Names))
	}
	return a.Result
}

// TestCrashStrictViolations: the golden matrix matches Table 1, and one
// inconsistent point on an expected-consistent design is a violation
// that names the design and the workload.
func TestCrashStrictViolations(t *testing.T) {
	m := goldenCrashMatrix(t)
	if v := m.StrictViolations(); len(v) != 0 {
		t.Fatalf("golden matrix violates Table 1: %v", v)
	}

	r := m[len(m)-1]
	i := slices.IndexFunc(r.Verdicts, func(v crash.ModeVerdict) bool { return v.Mode == machine.WTRegister })
	if i < 0 || !r.Verdicts[i].ExpectedOK || !r.Verdicts[i].Consistent() {
		t.Fatalf("golden %s matrix has no consistent, expected-consistent SuperMem verdict", r.Params.Workload)
	}
	r.Verdicts[i].Inconsistent = []crash.Result{{CrashStep: 3, RecoveryCrashStep: -1, Crashed: true, Detail: "injected"}}
	v := m.StrictViolations()
	if want := r.Verdicts[i].Name + "/" + r.Params.Workload; len(v) != 1 || !strings.Contains(v[0], want) {
		t.Errorf("violations %q, want one naming %s", v, want)
	}
}
