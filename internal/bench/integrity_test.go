package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"supermem/internal/config"
)

// smallIntegrity keeps the grid small enough for -short while still
// covering every mode and crash/no-crash point, on parallel workers.
func smallIntegrity(parallel int) (config.Config, Opts, IntegrityOpts) {
	return config.Default(), Opts{Parallel: parallel}, IntegrityOpts{
		Workloads:    []string{"array"},
		Steps:        8,
		CrashPoints:  []int{-1, 3, 6},
		Transactions: 60,
	}
}

// The artifact determinism claim for the new experiment: identical
// JSON whether the grid runs serially or across many workers.
func TestIntegritySerialParallelIdentical(t *testing.T) {
	serial, err := IntegritySweep(smallIntegrity(1))
	if err != nil {
		t.Fatal(err)
	}
	wide, err := IntegritySweep(smallIntegrity(8))
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
		t.Fatalf("serial and parallel integrity sweeps diverge:\nserial:\n%s\nparallel:\n%s", a, b)
	}
}

// The tentpole claim through the experiment path: no Silent outcomes,
// every tree mode flags its replays and reaches Detected-by-tree, the
// tree schemes pay measurable tree-write traffic, and the
// recovery-time ordering matches the persistence levels.
func TestIntegrityStrictClaims(t *testing.T) {
	res, err := IntegritySweep(smallIntegrity(0))
	if err != nil {
		t.Fatal(err)
	}
	if v := res.StrictViolations(); len(v) != 0 {
		t.Fatalf("strict violations:\n  %s", strings.Join(v, "\n  "))
	}
	byMode := map[string]IntegrityCell{}
	for _, c := range res.Cells {
		byMode[c.Mode] = c
	}
	// Triad-NVM (leaves-only persistence) must pay more recovery work
	// than BMT-Full, and both persist a non-empty tree image.
	full, leaves := byMode["BMT-Full"], byMode["BMT-Leaves"]
	if leaves.RecoveryHashes <= full.RecoveryHashes {
		t.Errorf("leaves-only recovery (%d hashes) not costlier than full persistence (%d)",
			leaves.RecoveryHashes, full.RecoveryHashes)
	}
	if full.TreeBytes == 0 || leaves.TreeBytes == 0 {
		t.Error("tree modes persisted no tree bytes")
	}
	// Full persistence stores the interior too: its snapshot is bigger.
	if full.TreeBytes <= leaves.TreeBytes {
		t.Errorf("full-persistence snapshot (%d B) not larger than leaves-only (%d B)",
			full.TreeBytes, leaves.TreeBytes)
	}
	// The treeless baseline must see the same replays and flag nothing.
	base := byMode["WT+Register"]
	if base.Replays == 0 || base.TreeFlags != 0 || base.TreeDetected != 0 {
		t.Errorf("baseline cell inconsistent: %+v", base)
	}
	// Phoenix's combining buffer must absorb tree writes in the timing
	// model; the uncoalesced BMT must not report any coalescing.
	byScheme := map[string]IntegrityTimingCell{}
	for _, tc := range res.Timing {
		byScheme[tc.Scheme] = tc
	}
	if byScheme["Phoenix"].TreeCoalesced == 0 {
		t.Error("Phoenix coalesced no tree writes")
	}
	if byScheme["BMT"].TreeCoalesced != 0 {
		t.Error("BMT reported coalesced tree writes without a combining buffer")
	}
	if byScheme["BMT"].TreeWrites <= byScheme["Triad-NVM"].TreeWrites {
		t.Errorf("full-path persistence (%d tree writes) not costlier than leaves-only (%d)",
			byScheme["BMT"].TreeWrites, byScheme["Triad-NVM"].TreeWrites)
	}
	// Amplification ordering: trees cost more than the baseline.
	if byScheme["BMT"].WriteAmplification() <= byScheme["WT"].WriteAmplification() {
		t.Errorf("BMT amplification %.3f not above WT %.3f",
			byScheme["BMT"].WriteAmplification(), byScheme["WT"].WriteAmplification())
	}
}
