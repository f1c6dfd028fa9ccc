package crash

import (
	"fmt"

	"supermem/internal/machine"
)

// This file is the malicious crash-loop driver: an attacker who can
// force power failures (or panic loops) crashes the machine at the
// persistence step that maximizes recovery work — mid-RSR, so every
// boot re-encrypts most of a page before the system is usable — and
// repeats. The mitigation under test is the recovery-work bound
// (Params.RecoveryBound / machine.WithRecoveryBound): a bounded
// pass stops with the RSR still armed and ResumeRecovery continues in
// stages, so no single recovery pass exceeds the budget.

// TotalPersists measures the persist steps the workload's transactions
// consume crash-free — the domain of valid crash points.
func TotalPersists(p Params) (int, error) {
	pr, err := profileRun(p.withDefaults(), nil)
	return pr.total, err
}

// LoopResult reports one crash+recover iteration of the crash loop.
type LoopResult struct {
	// CrashAt is the armed persistence step.
	CrashAt int `json:"crash_at"`
	// RecoveryPersists is the total persistence micro-steps recovery
	// consumed, across all staged passes plus the redo-log reapply.
	RecoveryPersists int `json:"recovery_persists"`
	// Passes is the number of recovery passes (1 when the bound never
	// bit; staged recovery adds one per ResumeRecovery).
	Passes int `json:"passes"`
	// MaxPassPersists is the largest single pass — the per-recovery
	// work the bound promises to cap.
	MaxPassPersists int `json:"max_pass_persists"`
	// BoundedPasses counts passes stopped by the recovery-work bound.
	BoundedPasses int `json:"bounded_passes"`
	// Consistent reports whether the recovered state matched a replay
	// of completed or completed+1 steps.
	Consistent bool `json:"consistent"`
}

// RunLoop crashes at each of the non-decreasing points (persist
// indexes counted from the end of setup), all forked from one
// crash-free run (forkRun). Each crash recovers under the given
// recovery-work bound (0 = unbounded), resumes staged recovery until no
// work is pending, reapplies the redo log, and is verified against a
// deterministic replay from one memo every point shares. A point
// beyond the run is an error.
func RunLoop(p Params, points []int, bound int) ([]LoopResult, error) {
	p = p.withDefaults()
	out := make([]LoopResult, len(points))
	replays := newReplayMemo(p)
	reached := 0
	err := forkRun(p, points, func(f fork) error {
		r, passes, maxPass := recoverDrained(f.m, machine.WithRecoveryBound(bound))
		ok, err := replays.matches(r, f.completed)
		out[f.i] = LoopResult{
			CrashAt:          points[f.i],
			RecoveryPersists: r.Persists(),
			Passes:           passes,
			MaxPassPersists:  maxPass,
			BoundedPasses:    r.BoundedRecoveries(),
			Consistent:       ok,
		}
		reached++
		return err
	})
	if err != nil {
		return nil, err
	}
	if reached < len(points) {
		return nil, fmt.Errorf("crash: crash point %d lies beyond the run", points[reached])
	}
	return out, nil
}
