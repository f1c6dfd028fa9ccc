// Package crash is the crash-consistency fuzzer: it runs the
// evaluation's workloads on the byte-accurate machine, injects a power
// failure at chosen persistence steps, recovers (ADR drain + redo-log
// recovery), and checks the structure's invariants. Because workloads
// are deterministic, the expected post-crash state is reconstructed by
// replaying the same seed for n or n+1 steps — the recovered structure
// must match one of the two (transaction atomicity).
package crash

import (
	"errors"
	"fmt"
	"sync"

	"supermem/internal/alloc"
	"supermem/internal/fault"
	"supermem/internal/machine"
	"supermem/internal/obs"
	"supermem/internal/pmem"
	"supermem/internal/workload"
)

// Params configures a fuzzing run.
type Params struct {
	// Mode is the machine design under test.
	Mode machine.Mode
	// Workload is one of workload.Names.
	Workload string
	// TxBytes is the transaction request size.
	TxBytes int
	// Items sizes the structure.
	Items int
	// Steps is how many transactions the run attempts.
	Steps int
	// Seed drives the workload and the heap layout.
	Seed int64
	// Key is the machine's AES key (16 bytes); a default is used when
	// nil.
	Key []byte
	// Attack parameterizes the adversarial workloads
	// (workload.AttackNames); ignored by everything else.
	Attack workload.AttackConfig
	// RecoveryBound caps each recovery pass's re-encryption completion
	// work at this many persistence micro-steps (0 = unbounded); see
	// machine.WithRecoveryBound. Bounded passes degrade to staged
	// recovery, which the recovery paths here drain to completion.
	RecoveryBound int
}

func (p Params) withDefaults() Params {
	if p.TxBytes == 0 {
		p.TxBytes = 256
	}
	if p.Items == 0 {
		p.Items = 32
	}
	if p.Steps == 0 {
		p.Steps = 20
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.Key == nil {
		p.Key = []byte("crash-fuzz-key..")
	}
	return p
}

const (
	logBase  = 0
	logSize  = 1 << 20
	heapBase = 1 << 20
	heapSize = 64 << 20
)

// newHeap builds the deterministic heap every run (and replay) shares.
func newHeap() (*alloc.Heap, error) {
	return alloc.NewHeap(
		alloc.Region{Base: heapBase, Size: heapSize},
		alloc.Region{Base: heapBase + heapSize, Size: heapSize},
	)
}

// build constructs a workload over the backend and runs setup.
func build(p Params, b pmem.Backend) (workload.Workload, *pmem.TxManager, error) {
	heap, err := newHeap()
	if err != nil {
		return nil, nil, err
	}
	w, err := workload.New(p.Workload, workload.Params{
		Heap:    heap,
		TxBytes: p.TxBytes,
		Items:   p.Items,
		Seed:    p.Seed,
		Attack:  p.Attack,
	})
	if err != nil {
		return nil, nil, err
	}
	tm := pmem.NewTxManager(b, logBase, logSize)
	if err := w.Setup(tm); err != nil {
		return nil, nil, err
	}
	// Table 1's premise is that the counters protecting *old* data are
	// correct — an idle write-back cache would have evicted them long
	// before the transaction under test. Flush them so a write-back
	// design's corruption is pinned on the measured transactions, not
	// on setup state no real machine would keep dirty.
	if m, ok := b.(*machine.Machine); ok {
		m.FlushCounters()
	}
	return w, tm, nil
}

// Result reports one crash experiment.
type Result struct {
	// CrashStep is the persistence step at which power failed (-1 when
	// the run completed without reaching it).
	CrashStep int
	// RecoveryCrashStep is the persistence step of the *recovery* path
	// at which a nested power failure struck, or -1 when none was armed
	// or the recovery finished before reaching it.
	RecoveryCrashStep int
	// CompletedSteps is the number of transactions that finished before
	// the crash.
	CompletedSteps int
	// Crashed reports whether the injection point was reached.
	Crashed bool
	// RecoveryCrashed reports whether the nested injection point was
	// reached during recovery.
	RecoveryCrashed bool
	// Consistent reports whether the recovered structure matched the
	// state after CompletedSteps or CompletedSteps+1 transactions.
	Consistent bool
	// RecoveryProbes is the number of candidate decryptions counter
	// recovery performed on the final recovered machine (zero for modes
	// that never probe) — the per-crash recovery cost of relaxed counter
	// persistence.
	RecoveryProbes int `json:"recovery_probes,omitempty"`
	// Detail carries the verification error when inconsistent.
	Detail string
}

// newMachine builds the machine every run of the workload steps
// (profileRun, runToCrash and forkRun): p's mode, key and recovery
// bound.
func newMachine(p Params) (*machine.Machine, error) {
	return machine.New(p.Mode, p.Key, machine.WithRecoveryBound(p.RecoveryBound))
}

// runToCrash executes the workload with a crash armed at the given
// persistence step (counted from the end of setup; negative leaves the
// crash unarmed) and returns the machine, the workload, and how many
// transactions completed. A non-nil injector attaches after setup, so
// its step schedule counts from the same origin as crash points.
func runToCrash(p Params, crashAt int, inj *fault.Injector) (*machine.Machine, workload.Workload, int, error) {
	m, err := newMachine(p)
	if err != nil {
		return nil, nil, 0, err
	}
	w, tm, err := build(p, m)
	if err != nil {
		return nil, nil, 0, err
	}
	if inj != nil {
		m.SetInjector(inj)
	}
	if crashAt >= 0 {
		m.ArmCrashAtPersist(crashAt)
	}
	completed := 0
	for i := 0; i < p.Steps && !m.Crashed(); i++ {
		if err := stepOnce(w, tm, inj != nil); err != nil {
			// A step interrupted by the power failure may fail its own
			// sanity checks (reads on a dead machine return zeros);
			// that is the crash, not a bug.
			if m.Crashed() {
				break
			}
			if inj != nil {
				// With faults injected, a live-run step failure is an
				// observable outcome — the corruption broke the
				// structure mid-run — not an infrastructure error.
				// Report it through the machine's step-failure slot.
				return m, w, completed, &stepFailure{step: i, err: err}
			}
			return nil, nil, 0, fmt.Errorf("crash: step %d: %w", i, err)
		}
		if !m.Crashed() {
			completed++
		}
	}
	return m, w, completed, nil
}

// A fork is the machine a crash armed at points[i] would leave, with
// the transactions completed before the point.
type fork struct {
	i         int
	m         *machine.Machine
	completed int
}

// forkRun runs the workload crash-free once, on a machine built exactly
// as runToCrash builds one, and hands check a fork at each of the
// non-decreasing points (persist indexes counted from the end of setup)
// that the run reaches. check runs inline, with the run paused inside
// the persist it forked at. A fork shares the run's pad cache, so it is
// recovered there or after forkRun returns, on the same goroutine. The
// first failing check stops the run, and its error is returned. There
// is no fault-injected form: an injector's schedule cannot be forked
// (see machine.ForkAtPersists).
func forkRun(p Params, points []int, check func(f fork) error) error {
	m, err := newMachine(p)
	if err != nil {
		return err
	}
	w, tm, err := build(p, m)
	if err != nil {
		return err
	}
	completed := 0
	var checkErr error
	err = m.ForkAtPersists(points, func(i int, fm *machine.Machine) {
		if checkErr == nil {
			checkErr = check(fork{i: i, m: fm, completed: completed})
		}
	})
	for i := 0; i < p.Steps && err == nil && checkErr == nil; i++ {
		if err = w.Step(tm); err != nil {
			err = fmt.Errorf("crash: step %d: %w", i, err)
		} else {
			completed++
		}
	}
	if err != nil {
		return err
	}
	return checkErr
}

// stepFailure marks a workload step broken by injected corruption on a
// live (uncrashed) machine. It travels through runToCrash's error
// return but is peeled off by runAndRecover rather than propagated.
type stepFailure struct {
	step int
	err  error
}

func (s *stepFailure) Error() string {
	return fmt.Sprintf("crash: step %d broken by injected fault: %v", s.step, s.err)
}

// stepOnce runs one workload step; with faults armed it also converts a
// panic into an error, since a structure corrupted mid-run can break
// the workload's own bookkeeping in ways it never guards against.
func stepOnce(w workload.Workload, tm *pmem.TxManager, tolerant bool) (err error) {
	if tolerant {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("workload panicked on corrupted state: %v", r)
			}
		}()
	}
	return w.Step(tm)
}

// Run executes the workload with a crash armed at the given persistence
// step (counted from the end of setup), recovers, and classifies the
// outcome.
func Run(p Params, crashAt int) (Result, error) {
	res, _, err := runAndRecover(p, crashAt, -1, nil)
	return res, err
}

// RunNested is Run with a second power failure armed at the given
// persistence micro-step of the recovery path itself: finishing the
// RSR re-encryption state machine and reapplying the redo log both
// consume persistence steps on the recovered machine, and crashing
// there exercises the windows Triad-NVM and Phoenix show persistence
// bugs hide in. After the nested crash a second (uninterrupted)
// recovery runs, and *that* state must match a replay.
func RunNested(p Params, crashAt, recoveryCrashAt int) (Result, error) {
	res, _, err := runAndRecover(p, crashAt, recoveryCrashAt, nil)
	return res, err
}

// runAndRecover is the shared engine of Run/RunNested/RunFault: it
// runs to the crash and hands the crashed machine to recoverAndCheck,
// returning the final recovered machine so callers can diff divergent
// bytes or read its fault statistics.
func runAndRecover(p Params, crashAt, recoveryCrashAt int, inj *fault.Injector) (Result, *machine.Machine, error) {
	p = p.withDefaults()
	m, w, completed, err := runToCrash(p, crashAt, inj)
	if err != nil {
		var sf *stepFailure
		if errors.As(err, &sf) {
			// Injected corruption broke the structure on the live run:
			// the machine never crashed, so there is nothing to recover —
			// the divergence itself is the result.
			return Result{
				CrashStep:         crashAt,
				RecoveryCrashStep: -1,
				CompletedSteps:    completed,
				Consistent:        false,
				Detail:            sf.Error(),
			}, m, nil
		}
		return Result{}, nil, err
	}
	return recoverAndCheck(p, m, w, completed, crashAt, recoveryCrashAt, newReplayMemo(p))
}

// recoverAndCheck is the post-crash half of a crash experiment: it
// recovers the machine runToCrash left, or a fork of one run (with a
// nested crash armed at recoveryCrashAt when non-negative), runs the
// redo log, and checks the result against the replays. A crashed
// machine's verdict reads only the machine and completed, never w.
// Machine.Recover only reads its predecessor, so one crashed machine
// can serve any number of calls.
func recoverAndCheck(p Params, m *machine.Machine, w workload.Workload, completed, crashAt, recoveryCrashAt int, replays *replayMemo) (Result, *machine.Machine, error) {
	res := Result{CrashStep: crashAt, RecoveryCrashStep: -1, CompletedSteps: completed, Crashed: m.Crashed()}
	if !m.Crashed() {
		// The run finished before the injection point; verify in place.
		res.CompletedSteps = p.Steps
		res.Consistent = true
		if err := w.Verify(m); err != nil {
			res.Consistent = false
			res.Detail = err.Error()
		}
		return res, m, nil
	}

	// A negative recoveryCrashAt leaves the nested crash unarmed.
	r, _, _ := recoverDrained(m, machine.WithCrashAtPersist(recoveryCrashAt))
	if r.Crashed() {
		// The nested failure hit mid-recovery; power-cycle again. The
		// second recovery runs to completion, and consistency is judged
		// on its result.
		res.RecoveryCrashed = true
		res.RecoveryCrashStep = recoveryCrashAt
		r, _, _ = recoverDrained(r)
	}
	res.RecoveryProbes = r.OsirisProbes()

	ok, err := replays.matches(r, completed)
	if err != nil {
		return Result{}, nil, err
	}
	if ok {
		res.Consistent = true
		return res, r, nil
	}
	// Capture a diagnostic from the nearer replay.
	replayW, err := replays.get(completed)
	if err != nil {
		return Result{}, nil, err
	}
	if verr := replayW.Verify(r); verr != nil {
		res.Detail = verr.Error()
	}
	return res, r, nil
}

// replay rebuilds the workload's Go-side bookkeeping after n steps on a
// scratch functional memory (deterministic: same seed, same heap
// layout). The memory is returned too, so callers can diff its bytes
// against a recovered machine.
func replay(p Params, n int) (workload.Workload, *pmem.Memory, error) {
	b := pmem.NewMemory()
	w, tm, err := build(p, b)
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < n; i++ {
		if err := w.Step(tm); err != nil {
			return nil, nil, fmt.Errorf("crash: replay step %d: %w", i, err)
		}
	}
	return w, b, nil
}

// replayMemo memoizes replay by step count, one slot per n in
// 0..Steps+1, each built on first use; Verify only reads the workload,
// so every crash point, and every mode fuzzed at once, can check
// against the same replay.
// The mode is not part of the key: build only looks at the backend's
// type, and replays run on a pmem.Memory, so all modes share one memo.
// Only the workload is kept: Memory.Load marks the lines it touches,
// so a shared memory could not be read concurrently, and a diff
// against replayed bytes takes a fresh replay.
type replayMemo struct {
	p     Params
	slots []replaySlot
}

type replaySlot struct {
	once sync.Once
	w    workload.Workload
	err  error
}

func newReplayMemo(p Params) *replayMemo {
	return &replayMemo{p: p, slots: make([]replaySlot, p.Steps+2)}
}

// get returns the n-step replay; an n outside the slots replays afresh.
func (rm *replayMemo) get(n int) (workload.Workload, error) {
	if n < 0 || n >= len(rm.slots) {
		w, _, err := replay(rm.p, n)
		return w, err
	}
	s := &rm.slots[n]
	s.once.Do(func() { s.w, _, s.err = replay(rm.p, n) })
	return s.w, s.err
}

// matches reports whether the recovered machine holds the replayed
// state after either completed or completed+1 transactions
// (transaction atomicity).
func (rm *replayMemo) matches(r *machine.Machine, completed int) (bool, error) {
	for _, n := range []int{completed, completed + 1} {
		w, err := rm.get(n)
		if err != nil {
			return false, err
		}
		if w.Verify(r) == nil {
			return true, nil
		}
	}
	return false, nil
}

// profile is what one crash-free run of the workload records, counted
// from the end of setup: its persist steps, which are the domain of
// crash points, each transaction's share of them, and the persist
// index at the start of every commit stage (the prepare/mutate/commit
// windows of Table 1, which the fuzzer's sampler weights toward).
type profile struct {
	total       int
	txPersists  []int
	stageStarts []int
}

// profileRun runs the workload crash-free with rec (nil is fine)
// attached after setup and verifies the final state. Its machine is
// built as runToCrash and forkRun build theirs, so forkRun repeats this
// run and reaches every point below the profile's total.
func profileRun(p Params, rec *obs.Recorder) (profile, error) {
	m, err := newMachine(p)
	if err != nil {
		return profile{}, err
	}
	w, tm, err := build(p, m)
	if err != nil {
		return profile{}, err
	}
	m.SetRecorder(rec)
	base := m.Persists()
	pr := profile{txPersists: make([]int, 0, p.Steps)}
	tm.StageHook = func(pmem.Stage) { pr.stageStarts = append(pr.stageStarts, m.Persists()-base) }
	prev := base
	for i := 0; i < p.Steps; i++ {
		if err := w.Step(tm); err != nil {
			return profile{}, fmt.Errorf("crash: reference step %d: %w", i, err)
		}
		n := m.Persists() - prev
		pr.txPersists = append(pr.txPersists, n)
		// The machine has no cycle clock, so the "latency" histogram
		// measures transactions in persist steps.
		rec.Observe(obs.HistTxLatency, uint64(n))
		prev = m.Persists()
	}
	rec.Finish(uint64(m.Persists()))
	pr.total = m.Persists() - base
	if err := w.Verify(m); err != nil {
		return profile{}, fmt.Errorf("crash: reference run verify: %w", err)
	}
	return pr, nil
}

// ReferenceRun executes the workload crash-free on the byte-accurate
// machine with an observability recorder attached and verifies the
// final state (profileRun). It returns the persist-step count of each
// transaction — the distribution behind the crash experiment's -hist
// output — while the recorder (if tracing) captures every persist
// instant and RSR re-encryption span the machine emits. Setup traffic
// is excluded: the recorder attaches after setup, matching how crash
// points are counted.
func ReferenceRun(p Params, rec *obs.Recorder) ([]int, error) {
	pr, err := profileRun(p.withDefaults(), rec)
	return pr.txPersists, err
}

// recoverDrained boots the crashed machine's successor (opts can arm a
// nested crash or a recovery-work bound), resumes a bounded (staged)
// recovery until no re-encryption work is pending, as a real boot
// sequence would before mounting, and reapplies the redo log. It also
// returns the recovery passes run (the boot plus one per
// ResumeRecovery) and the persist steps of the largest one. Unbounded
// recoveries never leave pending work, so they take one pass.
func recoverDrained(m *machine.Machine, opts ...machine.Option) (r *machine.Machine, passes, maxPass int) {
	r = m.Recover(opts...)
	passes, maxPass = 1, r.Persists()
	for prev := r.Persists(); r.RecoveryPending(); prev = r.Persists() {
		r.ResumeRecovery()
		passes++
		maxPass = max(maxPass, r.Persists()-prev)
	}
	pmem.Recover(r, logBase, logSize)
	return r, passes, maxPass
}
