package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"supermem/internal/config"
)

// smallSweep keeps the grid small enough for -short while still
// covering every mode x profile cell, on parallel workers.
func smallSweep(parallel int) (config.Config, Opts, FaultSweepOpts) {
	return config.Default(), Opts{Parallel: parallel}, FaultSweepOpts{
		Workloads:   []string{"array"},
		Steps:       6,
		PlanSeeds:   []int64{1},
		CrashPoints: []int{-1, 4},
	}
}

// The artifact determinism claim: the same options produce a
// byte-identical JSON serialization whether the grid runs serially or
// across many workers.
func TestFaultSweepSerialParallelIdentical(t *testing.T) {
	serial, err := FaultSweep(smallSweep(1))
	if err != nil {
		t.Fatal(err)
	}
	wide, err := FaultSweep(smallSweep(8))
	if err != nil {
		t.Fatal(err)
	}
	a, err := json.MarshalIndent(serial, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.MarshalIndent(wide, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("serial and parallel sweeps diverge:\nserial:\n%s\nparallel:\n%s", a, b)
	}
}

// The headline claim, through the experiment path: strong-ECC cells
// report zero silent corruption on every mode, the ECC-off cells do
// report silents (the model is actually exercised), and the
// quarantine cell completed with remaps visible through both stats
// and the obs series.
func TestFaultSweepStrictClaims(t *testing.T) {
	res, err := FaultSweep(smallSweep(0))
	if err != nil {
		t.Fatal(err)
	}
	if v := res.StrictViolations(); len(v) != 0 {
		t.Fatalf("strict violations:\n  %s", strings.Join(v, "\n  "))
	}
	offSilent, injected := 0, 0
	for _, c := range res.Cells {
		injected += c.Injected
		if c.ECC == "off" {
			offSilent += c.Silent
		}
		if c.Runs == 0 {
			t.Errorf("%s/%s: empty cell", c.Mode, c.ECC)
		}
	}
	if injected == 0 {
		t.Error("no media faults fired anywhere in the sweep")
	}
	if offSilent == 0 {
		t.Error("ECC-off cells report zero silent corruption; the differential check is vacuous")
	}
	q := res.Quarantine
	if q.Cycles == 0 {
		t.Error("quarantine cell reports zero cycles")
	}
	if q.QuarantinedBanks == 0 || q.BankRemaps == 0 {
		t.Errorf("quarantine cell never quarantined/remapped: %+v", q)
	}
	if q.ObsBankRemaps != q.BankRemaps {
		t.Errorf("obs series remap count %d != stats %d", q.ObsBankRemaps, q.BankRemaps)
	}
	if q.ReadRetries == 0 {
		t.Errorf("dead bank produced no read retries: %+v", q)
	}
	if !strings.Contains(res.String(), "quarantine") {
		t.Error("String() report missing quarantine section")
	}
}
