package crash

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"supermem/internal/config"
	"supermem/internal/ctr"
	"supermem/internal/machine"
	"supermem/internal/par"
	"supermem/internal/pmem"
	"supermem/internal/scheme"
	"supermem/internal/workload"
)

// The differential crash-consistency fuzzer. Fuzz explores a
// workload's crash points exhaustively (small runs) or by
// stage-weighted random sampling (large runs), optionally injects
// *nested* crashes at every persistence micro-step of the recovery
// path (the RSR re-encryption state machine and the redo-log reapply),
// runs every point across all machine modes, and checks each mode's
// verdict against Table 1's expected recoverability. Failing points
// are shrunk to the earliest failing persist index and reported with
// the divergent byte ranges and counter lines.

// AllModes lists every machine design the differential fuzzer sweeps,
// in mode registration order (Table 1 order plus the baselines). It is
// derived from the scheme registry: registering a new functional mode
// automatically adds it to the fuzzer's and the fault sweep's grids.
var AllModes = scheme.Modes()

// ExpectedConsistent is Table 1's recoverability claim for a mode on a
// workload: true means every crash point (nested ones included) must
// recover to a transaction boundary; false means the design must
// corrupt at least one crash point. The expectations are the registered
// Table1 rows in internal/scheme (the raw-store window of WTNoRegister
// is demonstrated separately in internal/machine's tests).
func ExpectedConsistent(mode machine.Mode, workload string) bool {
	return scheme.ExpectedConsistent(mode, workload)
}

// FuzzParams configures a differential fuzzing run.
type FuzzParams struct {
	// Workload is one of workload.Names.
	Workload string
	// TxBytes is the transaction request size (default 256).
	TxBytes int
	// Items sizes the structure (default 32).
	Items int
	// Steps is how many transactions each run attempts (default 6).
	Steps int
	// Seed drives the workload determinism (default 1).
	Seed int64
	// SampleSeed seeds the crash-point sampler (default: Seed). For a
	// fixed SampleSeed the tested point set — and therefore the whole
	// result — is identical at any Parallel value.
	SampleSeed int64
	// MaxPoints caps the crash points tested per mode; <= 0 or at
	// least the persist count means exhaustive. When sampling, points
	// near the prepare/mutate/commit stage starts are weighted higher
	// (Table 1's windows), the first persist index is always included
	// and, at a cap of two or more, the last.
	MaxPoints int
	// Nested also crashes at persistence micro-steps of the recovery
	// path after each outer crash: finishing the RSR re-encryption and
	// reapplying the redo log.
	Nested bool
	// MaxNested caps the nested points per outer crash point (<= 0
	// means 3); when sampled, the first recovery persist is always
	// included and, at a cap of two or more, the last.
	MaxNested int
	// Parallel is how many modes are fuzzed at once (<= 0 means
	// GOMAXPROCS); each mode's points run inline on its own goroutine.
	// Results are identical at any setting, so it is left out of their
	// JSON.
	Parallel int `json:"-"`
	// Modes overrides the machine designs swept (default AllModes).
	Modes []machine.Mode
}

func (fp FuzzParams) withDefaults() FuzzParams {
	if fp.Workload == "" {
		fp.Workload = "array"
	}
	if fp.TxBytes == 0 {
		fp.TxBytes = 256
	}
	if fp.Items == 0 {
		fp.Items = 32
	}
	if fp.Steps == 0 {
		fp.Steps = 6
	}
	if fp.Seed == 0 {
		fp.Seed = 1
	}
	if fp.SampleSeed == 0 {
		fp.SampleSeed = fp.Seed
	}
	if fp.MaxNested <= 0 {
		fp.MaxNested = 3
	}
	if fp.Modes == nil {
		fp.Modes = AllModes
	}
	return fp
}

func (fp FuzzParams) params(mode machine.Mode) Params {
	return Params{
		Mode:     mode,
		Workload: fp.Workload,
		TxBytes:  fp.TxBytes,
		Items:    fp.Items,
		Steps:    fp.Steps,
		Seed:     fp.Seed,
	}.withDefaults()
}

// LineDiff describes one memory line where the recovered machine
// diverges from the deterministic replay, plus the counter line the
// machine persisted for it — the forensic trail of a lost counter.
type LineDiff struct {
	// Addr is the line's base address.
	Addr uint64 `json:"addr"`
	// FirstByte and LastByte bound the divergent byte range within the
	// line (inclusive).
	FirstByte int `json:"first_byte"`
	LastByte  int `json:"last_byte"`
	// CtrMajor/CtrMinor are the persisted counter pair the machine
	// decrypts this line with; CtrPersisted is false when no counter
	// line was ever persisted for the page (the line decrypts under
	// the zero counter).
	CtrMajor     uint64 `json:"ctr_major"`
	CtrMinor     uint8  `json:"ctr_minor"`
	CtrPersisted bool   `json:"ctr_persisted"`
}

// Shrink is a minimized failure: the earliest failing persist index
// found by binary search (earliest in the monotone sense — every probe
// below it recovered), with the divergent lines at that point.
type Shrink struct {
	CrashStep         int        `json:"crash_step"`
	RecoveryCrashStep int        `json:"recovery_crash_step"` // -1 when no nested crash is needed
	Probes            int        `json:"probes"`
	Detail            string     `json:"detail,omitempty"`
	Diffs             []LineDiff `json:"diffs,omitempty"`
}

// ModeVerdict aggregates one machine design's differential sweep.
type ModeVerdict struct {
	Mode machine.Mode `json:"mode"`
	Name string       `json:"name"`
	// TotalPoints is the full crash-point space of the mode (its
	// persist count for the workload); Tested is how many were run.
	TotalPoints int `json:"total_points"`
	Tested      int `json:"tested"`
	// NestedTested counts nested recovery crash points run.
	NestedTested int `json:"nested_tested"`
	// Crashed counts outer points whose injection was reached.
	Crashed int `json:"crashed"`
	// Inconsistent lists every failing point (outer and nested).
	Inconsistent []Result `json:"inconsistent,omitempty"`
	// Minimized is the shrunk earliest failure, when any point failed.
	Minimized *Shrink `json:"minimized,omitempty"`
	// ExpectedOK is Table 1's expectation for this mode on the swept
	// workload (see ExpectedConsistent).
	ExpectedOK bool `json:"expected_ok"`
	// RecoveryProbes sums the candidate decryptions counter recovery
	// performed across the tested points — the recovery cost of relaxed
	// counter persistence (zero for modes that never probe).
	RecoveryProbes int `json:"recovery_probes"`
}

// Consistent reports whether every tested point recovered.
func (v ModeVerdict) Consistent() bool { return len(v.Inconsistent) == 0 }

// MatchesExpectation compares the verdict against Table 1: an
// expected-consistent mode must have no failing point; an
// expected-corrupt mode must have at least one.
func (v ModeVerdict) MatchesExpectation() bool {
	if v.ExpectedOK {
		return v.Consistent()
	}
	return !v.Consistent()
}

// FuzzResult is the differential matrix across modes.
type FuzzResult struct {
	Params   FuzzParams    `json:"params"`
	Verdicts []ModeVerdict `json:"verdicts"`
}

// Consistent reports whether every mode matched Table 1's expectation.
func (r *FuzzResult) Consistent() bool {
	for _, v := range r.Verdicts {
		if !v.MatchesExpectation() {
			return false
		}
	}
	return true
}

// CheckTable1 returns a descriptive error for the first mode whose
// verdict deviates from Table 1's expected recoverability.
func (r *FuzzResult) CheckTable1() error {
	for _, v := range r.Verdicts {
		if v.MatchesExpectation() {
			continue
		}
		if v.ExpectedOK {
			f := v.Inconsistent[0]
			return fmt.Errorf("crash: %s/%s expected consistent but crash@%d (recovery@%d) after %d txs corrupts: %s",
				v.Name, r.Params.Workload, f.CrashStep, f.RecoveryCrashStep, f.CompletedSteps, f.Detail)
		}
		return fmt.Errorf("crash: %s/%s expected to corrupt but survived all %d tested points (%d nested) — the vulnerability is not modelled",
			v.Name, r.Params.Workload, v.Tested, v.NestedTested)
	}
	return nil
}

// String renders the matrix, one row per mode.
func (r *FuzzResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %-10s %7s %7s %7s %8s %6s  %s\n",
		"mode", "workload", "points", "tested", "nested", "corrupt", "table1", "verdict")
	for _, v := range r.Verdicts {
		expect := "corrupt"
		if v.ExpectedOK {
			expect = "ok"
		}
		verdict := "MATCH"
		if !v.MatchesExpectation() {
			verdict = "DEVIATES"
		}
		fmt.Fprintf(&b, "%-14s %-10s %7d %7d %7d %8d %6s  %s\n",
			v.Name, r.Params.Workload, v.TotalPoints, v.Tested, v.NestedTested, len(v.Inconsistent), expect, verdict)
		if v.Minimized != nil {
			fmt.Fprintf(&b, "    minimized: crash@%d", v.Minimized.CrashStep)
			if v.Minimized.RecoveryCrashStep >= 0 {
				fmt.Fprintf(&b, " recovery@%d", v.Minimized.RecoveryCrashStep)
			}
			fmt.Fprintf(&b, " (%d probes)", v.Minimized.Probes)
			if v.Minimized.Detail != "" {
				fmt.Fprintf(&b, ": %s", v.Minimized.Detail)
			}
			fmt.Fprintln(&b)
			for _, d := range v.Minimized.Diffs {
				fmt.Fprintf(&b, "    diverges %#x bytes [%d,%d] ctr=(%d,%d) persisted=%v\n",
					d.Addr, d.FirstByte, d.LastByte, d.CtrMajor, d.CtrMinor, d.CtrPersisted)
			}
		}
	}
	return b.String()
}

// Fuzz runs the differential sweep: every sampled crash point (and,
// when Nested, every sampled recovery crash point beneath it) across
// every mode, with the modes fuzzed in parallel and deterministic
// results for a fixed SampleSeed at any Parallel value. On failure the
// lowest failing mode's error is returned.
func Fuzz(fp FuzzParams) (*FuzzResult, error) {
	fp = fp.withDefaults()
	// Replays do not depend on the mode (see replayMemo), so one memo,
	// built from any mode's params, serves every mode.
	replays := newReplayMemo(fp.params(0))
	verdicts := make([]ModeVerdict, len(fp.Modes))
	err := par.ForEachIndex(fp.Parallel, len(fp.Modes), func(i int) error {
		v, err := fuzzMode(fp, fp.Modes[i], replays)
		if err != nil {
			return fmt.Errorf("crash: fuzz %v/%s: %w", fp.Modes[i], fp.Workload, err)
		}
		verdicts[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &FuzzResult{Params: fp, Verdicts: verdicts}, nil
}

// fuzzMode forks every sampled point from one crash-free run of the
// mode (forkRun): the outer recovery and every nested one recover the
// same fork, and the outer successor's persist count is the recovery
// path's length that the nested points are sampled from. forkRun checks
// the points in order, so the verdict tallies them as they come.
func fuzzMode(fp FuzzParams, mode machine.Mode, replays *replayMemo) (ModeVerdict, error) {
	p := fp.params(mode)
	pr, err := profileRun(p, nil)
	if err != nil {
		return ModeVerdict{}, err
	}
	// The profile is the run forkRun repeats, so that run reaches every
	// point.
	points := samplePoints(pr.total, pr.stageStarts, fp.MaxPoints, fp.SampleSeed)
	v := ModeVerdict{
		Mode: mode, Name: mode.String(),
		TotalPoints: pr.total, Tested: len(points),
		ExpectedOK: ExpectedConsistent(mode, fp.Workload),
	}
	tally := func(res Result) {
		if !res.Consistent {
			v.Inconsistent = append(v.Inconsistent, res)
		}
		v.RecoveryProbes += res.RecoveryProbes
	}
	err = forkRun(p, points, func(f fork) error {
		crashAt := points[f.i]
		outer, r, err := recoverAndCheck(p, f.m, nil, f.completed, crashAt, -1, replays)
		if err != nil {
			return err
		}
		if outer.Crashed {
			v.Crashed++
		}
		tally(outer)
		if !fp.Nested {
			return nil
		}
		for _, j := range sampleNested(r.Persists(), fp.MaxNested, fp.SampleSeed, crashAt) {
			nres, _, err := recoverAndCheck(p, f.m, nil, f.completed, crashAt, j, replays)
			if err != nil {
				return err
			}
			v.NestedTested++
			tally(nres)
		}
		return nil
	})
	if err != nil {
		return ModeVerdict{}, err
	}
	if len(v.Inconsistent) > 0 {
		sh, err := shrink(p, v.Inconsistent[0], replays)
		if err != nil {
			return ModeVerdict{}, err
		}
		v.Minimized = sh
	}
	return v, nil
}

// samplePoints chooses the crash points to test. Exhaustive when the
// budget covers the space; otherwise a seeded weighted sample without
// replacement, biased toward the persist indexes at and around the
// commit-stage starts (Table 1's prepare/mutate/commit windows, where
// persistence bugs concentrate), always keeping the first index and,
// when the budget holds two or more, the last. The returned slice is
// sorted.
func samplePoints(total int, stageStarts []int, max int, seed int64) []int {
	if total <= 0 {
		return nil
	}
	if max <= 0 || total <= max {
		all := make([]int, total)
		for i := range all {
			all[i] = i
		}
		return all
	}
	weights := make([]int, total)
	for i := range weights {
		weights[i] = 1
	}
	for _, b := range stageStarts {
		for d := 0; d <= 3; d++ {
			bonus := 32 >> d
			if b+d >= 0 && b+d < total {
				weights[b+d] += bonus
			}
			if d > 0 && b-d >= 0 && b-d < total {
				weights[b-d] += bonus
			}
		}
	}
	chosen := make(map[int]bool, max)
	chosen[0] = true
	if max > 1 {
		chosen[total-1] = true
	}
	rng := rand.New(rand.NewSource(seed))
	for len(chosen) < max {
		sum := 0
		for i, w := range weights {
			if !chosen[i] {
				sum += w
			}
		}
		pick := rng.Intn(sum)
		for i, w := range weights {
			if chosen[i] {
				continue
			}
			pick -= w
			if pick < 0 {
				chosen[i] = true
				break
			}
		}
	}
	out := make([]int, 0, len(chosen))
	for i := range chosen {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// sampleNested picks the recovery persist steps to nest a crash into,
// deterministically per (seed, outer point), keeping the first step
// and, when the budget holds two or more, the last. A recovery that
// persists nothing yields no nested points.
func sampleNested(recoverySteps, max int, seed int64, crashAt int) []int {
	if recoverySteps <= 0 {
		return nil
	}
	if recoverySteps <= max {
		all := make([]int, recoverySteps)
		for i := range all {
			all[i] = i
		}
		return all
	}
	chosen := map[int]bool{0: true}
	if max > 1 {
		chosen[recoverySteps-1] = true
	}
	rng := rand.New(rand.NewSource(seed ^ (int64(crashAt)+1)*0x5E3779B97F4A7C15))
	for len(chosen) < max {
		chosen[rng.Intn(recoverySteps)] = true
	}
	out := make([]int, 0, len(chosen))
	for i := range chosen {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// shrink minimizes a failing point by binary search: for a nested
// failure the recovery index is shrunk at the fixed outer point, else
// the outer persist index is shrunk. The invariant is the standard
// one — the upper bound always fails — so the result is the earliest
// failing index in the monotone sense (every probed index below it
// recovered). The divergent lines at the minimized point are diffed
// against a fresh replay.
func shrink(p Params, fail Result, replays *replayMemo) (*Shrink, error) {
	sh := &Shrink{CrashStep: fail.CrashStep, RecoveryCrashStep: -1, Detail: fail.Detail}
	// recoverAt keeps the last crashed machine, so a nested shrink runs
	// its fixed outer point to the crash once and recovers it per probe.
	var (
		m         *machine.Machine
		w         workload.Workload
		completed int
		crashedAt = -1
	)
	recoverAt := func(outer, rec int) (Result, *machine.Machine, error) {
		if crashedAt != outer {
			var err error
			if m, w, completed, err = runToCrash(p, outer, nil); err != nil {
				return Result{}, nil, err
			}
			crashedAt = outer
		}
		return recoverAndCheck(p, m, w, completed, outer, rec, replays)
	}
	nested := fail.RecoveryCrashStep >= 0
	lo, hi := 0, fail.CrashStep
	if nested {
		hi = fail.RecoveryCrashStep
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
		outer, rec := mid, -1
		if nested {
			outer, rec = fail.CrashStep, mid
		}
		sh.Probes++
		res, _, err := recoverAt(outer, rec)
		if err != nil {
			return nil, err
		}
		if !res.Consistent {
			hi = mid
			sh.Detail = res.Detail
		} else {
			lo = mid + 1
		}
	}
	if nested {
		sh.RecoveryCrashStep = hi
	} else {
		sh.CrashStep = hi
	}

	res, r, err := recoverAt(sh.CrashStep, sh.RecoveryCrashStep)
	if err != nil {
		return nil, err
	}
	if r != nil && !res.Consistent {
		if sh.Detail == "" {
			sh.Detail = res.Detail
		}
		// A fresh replay, not the memo's: the memo keeps only
		// workloads, and diffLines reads the replayed memory.
		_, mem, err := replay(p, res.CompletedSteps)
		if err != nil {
			return nil, err
		}
		sh.Diffs = diffLines(r, mem)
	}
	return sh, nil
}

// maxDiffs caps the divergent lines reported per minimized failure.
const maxDiffs = 8

// diffLines compares the recovered machine's heap view against the
// replayed memory's, line by line, reporting the divergent byte ranges
// and the counter pair each divergent line decrypts under. The log
// region is excluded — its contents legitimately differ (the replay
// never crashed, so its log holds the last transaction un-invalidated
// from recovery's perspective).
func diffLines(r *machine.Machine, mem *pmem.Memory) []LineDiff {
	seen := make(map[uint64]bool)
	var lines []uint64
	add := func(addrs []uint64) {
		for _, a := range addrs {
			if a >= heapBase && !seen[a] {
				seen[a] = true
				lines = append(lines, a)
			}
		}
	}
	add(r.NVMLines())
	add(mem.Lines())
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })

	var out []LineDiff
	for _, base := range lines {
		got := r.Load(base, config.LineSize)
		want := mem.Load(base, config.LineSize)
		if bytes.Equal(got, want) {
			continue
		}
		first, last := 0, config.LineSize-1
		for first < config.LineSize && got[first] == want[first] {
			first++
		}
		for last > first && got[last] == want[last] {
			last--
		}
		page := base / config.PageSize
		cl, ok := r.PersistedCounter(page)
		out = append(out, LineDiff{
			Addr:         base,
			FirstByte:    first,
			LastByte:     last,
			CtrMajor:     cl.Major,
			CtrMinor:     cl.Minors[ctr.LineIndex(base)],
			CtrPersisted: ok,
		})
		if len(out) == maxDiffs {
			break
		}
	}
	return out
}
