package crash

import (
	"testing"

	"supermem/internal/machine"
	"supermem/internal/workload"
)

// TestCrashLoopBoundStagesRecovery pins the crash-loop mitigation at
// the unit level: at the hammer's worst crash point an unbounded
// recovery is one huge pass, and a tight recovery-work bound turns the
// same recovery into several small passes that finish consistently and
// do the same total work.
func TestCrashLoopBoundStagesRecovery(t *testing.T) {
	p := Params{
		Mode:     machine.WTRegister,
		Workload: "ctrhammer",
		Steps:    4,
		Seed:     3,
		Attack:   workload.AttackConfig{HotPages: 6},
	}
	total, err := TotalPersists(p)
	if err != nil {
		t.Fatal(err)
	}
	points := make([]int, total)
	for i := range points {
		points[i] = i
	}
	scan, err := RunLoop(p, points, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A point the run never reaches is refused, not reported as a
	// recovery that did not happen.
	if _, err := RunLoop(p, []int{total}, 0); err == nil {
		t.Fatalf("crash point %d, past the run's last persist, accepted", total)
	}
	unbounded := scan[0]
	for _, r := range scan {
		if r.RecoveryPersists > unbounded.RecoveryPersists {
			unbounded = r
		}
	}
	// A mid-RSR crash must exist: the hammer's whole point is that
	// recovery re-encrypts most of a page.
	if unbounded.RecoveryPersists < 32 {
		t.Fatalf("worst recovery cost %d at %d — hammer never armed a re-encryption storm",
			unbounded.RecoveryPersists, unbounded.CrashAt)
	}
	if !unbounded.Consistent {
		t.Fatal("unbounded recovery left inconsistent state")
	}
	if unbounded.Passes != 1 || unbounded.BoundedPasses != 0 {
		t.Fatalf("unbounded recovery ran %d passes (%d bounded), want one unbounded pass",
			unbounded.Passes, unbounded.BoundedPasses)
	}

	const bound = 8
	loop, err := RunLoop(p, []int{unbounded.CrashAt}, bound)
	if err != nil {
		t.Fatal(err)
	}
	bounded := loop[0]
	if !bounded.Consistent {
		t.Fatal("bounded recovery left inconsistent state")
	}
	if bounded.BoundedPasses == 0 || bounded.Passes <= 1 {
		t.Fatalf("bound %d never staged recovery: %+v", bound, bounded)
	}
	// Each pass respects the bound (plus the couple of metadata persists
	// a pass spends beyond the metered re-encryption steps).
	if bounded.MaxPassPersists > bound+8 {
		t.Fatalf("bounded pass did %d persists, bound %d", bounded.MaxPassPersists, bound)
	}
	if bounded.MaxPassPersists >= unbounded.MaxPassPersists {
		t.Fatalf("bounding did not shrink the worst pass: %d -> %d",
			unbounded.MaxPassPersists, bounded.MaxPassPersists)
	}
	// Staging defers work, it does not skip any: the bounded loop's
	// total recovery work covers the unbounded pass.
	if bounded.RecoveryPersists < unbounded.RecoveryPersists {
		t.Fatalf("bounded recovery did %d total persists < unbounded %d",
			bounded.RecoveryPersists, unbounded.RecoveryPersists)
	}
}
