package crash

import "supermem/internal/machine"

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
	total, _, err := persistProfile(p.withDefaults())
	return total, err
}

// RecoveryCost measures the persistence micro-steps one uninterrupted
// recovery consumes after a crash at crashAt (RSR completion plus
// redo-log reapply). Zero means the crash point needed no recovery
// writes, or lies outside the run.
func RecoveryCost(p Params, crashAt int) (int, error) {
	if crashAt < 0 {
		return 0, nil // an unarmed crash never fires
	}
	costs, err := RecoveryCosts(p, []int{crashAt})
	if err != nil {
		return 0, err
	}
	return costs[0], nil
}

// RecoveryCosts is RecoveryCost at each of the non-decreasing,
// non-negative points, all forked from one crash-free run (forkRun)
// instead of one run per point. A point beyond the run costs zero.
func RecoveryCosts(p Params, points []int) ([]int, error) {
	costs := make([]int, len(points))
	err := forkRun(p.withDefaults(), points, 1, func(f fork) error {
		r, _, _ := recoverDrained(f.m, machine.WithPadCache(f.pads))
		costs[f.i] = r.Persists()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return costs, nil
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

// RunLoopIteration crashes at crashAt, recovers under the given
// recovery-work bound (0 = unbounded), resumes staged recovery until no
// work is pending, reapplies the redo log, and verifies the recovered
// state against a deterministic replay.
func RunLoopIteration(p Params, crashAt, bound int) (LoopResult, error) {
	p = p.withDefaults()
	m, w, completed, err := runToCrash(p, crashAt, nil)
	if err != nil {
		return LoopResult{}, err
	}
	out := LoopResult{CrashAt: crashAt, Passes: 0}
	if !m.Crashed() {
		out.Consistent = w.Verify(m) == nil
		return out, nil
	}
	r, passes, maxPass := recoverDrained(m, machine.WithRecoveryBound(bound))
	out.Passes, out.MaxPassPersists = passes, maxPass
	out.BoundedPasses = r.BoundedRecoveries()
	out.RecoveryPersists = r.Persists()
	ok, err := newReplayMemo(p).matches(r, completed)
	if err != nil {
		return LoopResult{}, err
	}
	out.Consistent = ok
	return out, nil
}
