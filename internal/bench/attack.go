package bench

import (
	"flag"
	"fmt"
	"sort"
	"strings"

	"supermem/internal/config"
	"supermem/internal/crash"
	"supermem/internal/fault"
	"supermem/internal/machine"
	"supermem/internal/obs"
	"supermem/internal/par"
	"supermem/internal/stats"
	"supermem/internal/workload"
)

// The attack experiment treats persistence-based attacks as first-class
// benchmark subjects: each adversarial workload runs against each
// scheme with its mitigation off and on, and the artifact reports how
// much damage the attack does and how much the mitigation claws back.
//
//   - Minor-counter overflow hammer (workload "ctrhammer"): every
//     measured step detonates a primed page into a full re-encryption
//     storm. Headline: write-bandwidth amplification over a benign twin
//     issuing the same flush rate. Mitigation: the overflow throttle
//     (config.OverflowThrottlePeriod).
//   - Hot-bank write DoS (workload "hotbank" co-run with an "array"
//     victim): the attacker fills the shared write queue with one
//     bank's writes so the victim stalls at admission. Headlines: NVM
//     write amplification over the victim running alone, and victim
//     p99 latency versus that seed-matched alone run. Mitigation: the
//     wear-leveling remap rotation (config.WearRemapPeriod).
//   - Malicious crash loop (crash machines): scan the hammer's persist
//     timeline for the crash point maximizing recovery work and crash
//     there repeatedly. Headline: worst recovery persists versus the
//     same scan over a benign workload. Mitigation: the recovery-work
//     bound (AttackOpts.RecoveryBound, passed on as
//     crash.Params.RecoveryBound) degrading to staged recovery.
//
// Everything is deterministic: cells are a pure function of the
// options, grid scans land in pre-sized slices by index, and
// aggregation happens in declaration order — the JSON artifact is
// byte-identical at any parallelism and carries no wall-time fields.

// AttackOpts sizes the attack experiment. Zero fields take defaults,
// so AttackOpts{} is the standard run.
type AttackOpts struct {
	// Schemes lists the encrypted designs under attack; default
	// {WT, SuperMem}.
	Schemes []config.Scheme
	// Steps is the measured attacker step count per timing cell;
	// default 64.
	Steps int
	// ThrottlePeriod and ThrottleBurst configure the overflow throttle
	// the mitigated hammer cells enable; defaults: one detonation per
	// 100000 cycles, burst 1.
	ThrottlePeriod uint64
	ThrottleBurst  int
	// WearPeriod is the wear-leveling rotation period (in write
	// services) the mitigated DoS cells enable; default 64.
	WearPeriod uint64
	// RecoveryBound caps per-pass recovery persists in the mitigated
	// crash-loop cells; default 16.
	RecoveryBound int
	// LoopIterations is how many worst crash points the crash loop
	// replays; default 6.
	LoopIterations int
	// CrashSteps is the crash-machine workload step count; default 6.
	CrashSteps int
	// Modes lists the crash-machine designs the crash loop targets;
	// default {WTRegister, BMTLeaves}.
	Modes []machine.Mode
	// AttackerModel selects the attacker cores' timing model ("" keeps
	// the template's model; config.CoreOoO gives the adversary an
	// out-of-order core with MSHRs). Victim cores always run in-order,
	// so the knob asks whether a better-provisioned attacker does more
	// damage.
	AttackerModel string
}

func (ao AttackOpts) withDefaults() AttackOpts {
	if len(ao.Schemes) == 0 {
		ao.Schemes = []config.Scheme{config.WT, config.SuperMem}
	}
	if ao.Steps == 0 {
		ao.Steps = 64
	}
	if ao.ThrottlePeriod == 0 {
		ao.ThrottlePeriod = 100_000
	}
	if ao.ThrottleBurst == 0 {
		ao.ThrottleBurst = 1
	}
	if ao.WearPeriod == 0 {
		ao.WearPeriod = 64
	}
	if ao.RecoveryBound == 0 {
		ao.RecoveryBound = 16
	}
	if ao.LoopIterations == 0 {
		ao.LoopIterations = 6
	}
	if ao.CrashSteps == 0 {
		ao.CrashSteps = 6
	}
	if len(ao.Modes) == 0 {
		ao.Modes = []machine.Mode{machine.WTRegister, machine.BMTLeaves}
	}
	return ao
}

// HammerCell is one scheme x mitigation point of the overflow hammer.
type HammerCell struct {
	Scheme    string `json:"scheme"`
	Mitigated bool   `json:"mitigated"`
	// Writes counts the attack run's NVM writes (data + counter +
	// integrity-tree nodes); Cycles is its simulated duration.
	Writes uint64 `json:"nvm_writes"`
	Cycles uint64 `json:"cycles"`
	// BenignWrites/BenignCycles are the benign twin's totals: the same
	// flush rate spread across all lines instead of detonating primed
	// pages. The twin runs unmitigated — it is the no-attack reference.
	BenignWrites uint64 `json:"benign_writes"`
	BenignCycles uint64 `json:"benign_cycles"`
	// Amplification is the induced-write ratio Writes/BenignWrites:
	// how many NVM writes the attacker's flushes force compared to an
	// honest program issuing the identical flush count. The throttle
	// cannot shrink a fixed-length attack's total (the storms still
	// happen, later); its effect shows in WritesPerMCycle.
	Amplification float64 `json:"amplification"`
	// WritesPerMCycle is the attack's induced NVM write bandwidth
	// (writes per million cycles) — the damage rate the throttle
	// bounds; BenignWritesPerMCycle is the twin's.
	WritesPerMCycle       float64 `json:"writes_per_mcycle"`
	BenignWritesPerMCycle float64 `json:"benign_writes_per_mcycle"`
	// Reencryptions counts the page re-encryption storms the attack
	// triggered in the measured phase.
	Reencryptions uint64 `json:"reencryptions"`
	// ThrottleStalls/ThrottleStallCycles are the mitigation's measured
	// backpressure (zero when off).
	ThrottleStalls      uint64 `json:"throttle_stalls"`
	ThrottleStallCycles uint64 `json:"throttle_stall_cycles"`
	// ObsThrottleStalls sums the observability series for the whole run
	// (warmup included, so it can exceed ThrottleStalls, never trail
	// it).
	ObsThrottleStalls uint64 `json:"obs_throttle_stalls"`
}

// DoSCell is one scheme x mitigation point of the hot-bank write DoS.
type DoSCell struct {
	Scheme    string `json:"scheme"`
	Mitigated bool   `json:"mitigated"`
	// Writes is the attack cell's total NVM writes; BaselineWrites is
	// the victim-alone cell's. Amplification is their ratio — the
	// write traffic the attacker's presence adds to the array.
	Writes         uint64  `json:"nvm_writes"`
	BaselineWrites uint64  `json:"baseline_writes"`
	Amplification  float64 `json:"amplification"`
	// VictimP99 is the co-located array program's p99 transaction
	// latency under attack; BaselineP99 is the identical program (same
	// request stream, seed-matched) running alone. Slowdown is their
	// ratio — the admission-stall damage. The one-op-at-a-time core
	// model caps a single attacker at one parked waiter, so slowdowns
	// sit well below the write amplification; SuperMem's CWC absorbs
	// part of the pressure, so it suffers less than WT.
	VictimP99   uint64  `json:"victim_p99"`
	AttackerP99 uint64  `json:"attacker_p99"`
	BaselineP99 uint64  `json:"baseline_p99"`
	Slowdown    float64 `json:"slowdown"`
	// WQStallCycles is total write-queue admission stall time.
	WQStallCycles uint64 `json:"wq_stall_cycles"`
	// WearRotations/WearRemappedWrites are the mitigation's measured
	// activity (zero when off); ObsWearRemaps is the same remap count
	// summed from the observability series over the whole run.
	WearRotations      uint64 `json:"wear_rotations"`
	WearRemappedWrites uint64 `json:"wear_remapped_writes"`
	ObsWearRemaps      uint64 `json:"obs_wear_remaps"`
}

// CrashLoopCell is one machine mode x mitigation point of the
// malicious crash loop.
type CrashLoopCell struct {
	Mode      string `json:"mode"`
	Mitigated bool   `json:"mitigated"`
	// WorstCrashAt is the persist step whose crash maximizes recovery
	// work; WorstRecoveryPersists is that recovery's cost, and
	// BaselineWorst the worst cost over the benign workload's timeline.
	WorstCrashAt          int `json:"worst_crash_at"`
	WorstRecoveryPersists int `json:"worst_recovery_persists"`
	BaselineWorst         int `json:"baseline_worst"`
	// Amplification is WorstRecoveryPersists / BaselineWorst.
	Amplification float64 `json:"amplification"`
	// Iterations is the crash-loop length; the totals below sum over
	// it.
	Iterations            int  `json:"iterations"`
	TotalRecoveryPersists int  `json:"total_recovery_persists"`
	TotalPasses           int  `json:"total_passes"`
	MaxPassPersists       int  `json:"max_pass_persists"`
	BoundedPasses         int  `json:"bounded_passes"`
	AllConsistent         bool `json:"all_consistent"`
	// FaultOutcome is the differential fault-injection verdict at the
	// worst crash point under strong ECC with the recovery bound
	// enabled (mitigated cell only).
	FaultOutcome    string `json:"fault_outcome,omitempty"`
	FaultSurvivable bool   `json:"fault_survivable,omitempty"`
}

// AttackResult is the attack experiment's artifact payload. It carries
// no wall-time or parallelism fields: the same options produce a
// byte-identical BENCH_attack.json at any -parallel setting.
type AttackResult struct {
	Steps          int             `json:"steps"`
	ThrottlePeriod uint64          `json:"throttle_period"`
	ThrottleBurst  int             `json:"throttle_burst"`
	WearPeriod     uint64          `json:"wear_period"`
	RecoveryBound  int             `json:"recovery_bound"`
	Hammer         []HammerCell    `json:"hammer"`
	DoS            []DoSCell       `json:"dos"`
	CrashLoop      []CrashLoopCell `json:"crash_loop"`
}

const (
	hammerWarmup = 4
	dosWarmup    = 8
	// dosFootprint is the DoS victim's data footprint; see dosSpec.
	dosFootprint = 64 << 10
	// recoveryPassSlack allows a bounded recovery pass a few metadata
	// persists (log scan, counter flush) beyond the re-encryption steps
	// the bound meters.
	recoveryPassSlack = 8
)

// attackExperiment is the registry entry with its -attack-* flags.
func attackExperiment() Experiment {
	var ao AttackOpts
	return Experiment{
		Name:  "attack",
		Claim: "every attack did damage unmitigated and every mitigation measurably reduced it",
		Flags: func(fs *flag.FlagSet) {
			fs.IntVar(&ao.Steps, "attack-steps", 0, "measured attacker steps per timing cell for -exp attack (default 64)")
			fs.IntVar(&ao.LoopIterations, "attack-loop", 0, "crash-loop iterations for -exp attack (default 6)")
			fs.IntVar(&ao.RecoveryBound, "attack-bound", 0, "recovery-work bound of the mitigated crash-loop cells (default 16)")
			fs.Func("attack-core", "attacker core timing model for -exp attack (inorder or ooo; default: the -core model; victims always run in-order)", coreModelFlag(&ao.AttackerModel))
		},
		Run: func(cfg config.Config, o Opts) (Result, error) { return AttackSweep(cfg, o, ao) },
	}
}

// AttackSweep runs the full attack x scheme x {mitigation off, on}
// grid and reports amplification, victim tail latency, and crash-loop
// recovery cost for each point.
func AttackSweep(base config.Config, o Opts, ao AttackOpts) (*AttackResult, error) {
	ao = ao.withDefaults()

	// Timing cells in a fixed order: per scheme the hammer triplet
	// (benign twin, unmitigated, throttled) then the DoS triplet
	// (victim-alone baseline, unmitigated, wear-leveled). Base is not
	// part of the trace key, so the off/on pairs replay one cached
	// recording.
	hammerSpec := func(scheme config.Scheme, benign, mitigated bool) Spec {
		cfg := base
		if mitigated {
			cfg.OverflowThrottlePeriod = ao.ThrottlePeriod
			cfg.OverflowThrottleBurst = ao.ThrottleBurst
		}
		return Spec{
			Base:           cfg,
			Workload:       "ctrhammer",
			Scheme:         scheme,
			TxBytes:        256,
			Transactions:   ao.Steps,
			Warmup:         hammerWarmup,
			Cores:          1,
			FootprintBytes: o.FootprintBytes,
			Seed:           o.Seed,
			// One primed page per step (warmup included) so every
			// measured flush detonates a fresh page.
			Attack: workload.AttackConfig{HotPages: hammerWarmup + ao.Steps, Benign: benign},
			// The hammer's lone core is the attacker.
			CoreModel: ao.AttackerModel,
		}
	}
	dosSpec := func(scheme config.Scheme, attack, mitigated bool) Spec {
		cfg := base
		if mitigated {
			cfg.WearRemapPeriod = ao.WearPeriod
		}
		// Victims run in-order: core 1 of the attack cell and the
		// baseline's lone core 0. The attack cell's core 0 is the
		// attacker.
		cfg.CoreModels = [4]string{config.CoreInOrder, config.CoreInOrder}
		if attack {
			cfg.CoreModels[0] = ao.AttackerModel
		}
		oooAttacker := attack && cfg.ModelFor(0) == config.CoreOoO
		s := Spec{
			Base:     cfg,
			Workload: "array",
			Scheme:   scheme,
			TxBytes:  256,
			// Both cores run the same step count, so the victim must
			// stay small: a big array's setup alone outlasts the whole
			// attacker trace and the measured phases never overlap.
			Transactions:   ao.Steps,
			Warmup:         dosWarmup,
			Cores:          2,
			FootprintBytes: dosFootprint,
			Seed:           o.Seed,
		}
		if attack {
			flushes := 64
			if oooAttacker {
				// An OoO attacker drains its fixed-length trace about
				// width times faster than the in-order one; scale its
				// per-step flush budget to match, or it finishes before
				// the victim's measured phase and the overlap — the
				// attack — never happens.
				flushes *= cfg.EffectiveOoOWidth()
			}
			s.CoreWorkloads = [4]string{"hotbank"}
			s.Attack = workload.AttackConfig{HotPages: 64, FlushesPerStep: flushes}
		} else {
			// Victim-alone baseline: one core, one bank — the same
			// single-bank layout the victim core has in the attack cell.
			// Per-core seeds are Seed + coreID*7919, so shifting the base
			// seed gives this lone core the attack cell's exact core-1
			// request stream.
			s.Cores = 1
			s.SingleCoreBanks = 1
			s.CoreWorkloads = [4]string{}
			s.Seed = o.Seed + 7919
		}
		return s
	}
	var cells []Spec
	for _, sch := range ao.Schemes {
		cells = append(cells,
			hammerSpec(sch, true, false),
			hammerSpec(sch, false, false),
			hammerSpec(sch, false, true),
			dosSpec(sch, false, false),
			dosSpec(sch, true, false),
			dosSpec(sch, true, true),
		)
	}

	// The experiment reads per-core histograms and the mitigation
	// series, so it observes every cell.
	ms, recs, err := o.runCells(cells, true)
	if err != nil {
		return nil, fmt.Errorf("attack: %w", err)
	}

	res := &AttackResult{
		Steps:          ao.Steps,
		ThrottlePeriod: ao.ThrottlePeriod,
		ThrottleBurst:  ao.ThrottleBurst,
		WearPeriod:     ao.WearPeriod,
		RecoveryBound:  ao.RecoveryBound,
	}
	attackWrites := func(m stats.Metrics) uint64 { return m.TotalNVMWrites() + m.TreeNodeWrites }
	bandwidth := func(m stats.Metrics) float64 {
		if m.Cycles == 0 {
			return 0
		}
		return 1e6 * float64(attackWrites(m)) / float64(m.Cycles)
	}
	ci := 0
	for _, sch := range ao.Schemes {
		benign := ms[ci]
		for k, mitigated := range []bool{false, true} {
			m := ms[ci+1+k]
			rec := recs[ci+1+k]
			amp := 0.0
			if bw := attackWrites(benign); bw > 0 {
				amp = float64(attackWrites(m)) / float64(bw)
			}
			res.Hammer = append(res.Hammer, HammerCell{
				Scheme:                sch.String(),
				Mitigated:             mitigated,
				Writes:                attackWrites(m),
				Cycles:                m.Cycles,
				BenignWrites:          attackWrites(benign),
				BenignCycles:          benign.Cycles,
				Amplification:         amp,
				WritesPerMCycle:       bandwidth(m),
				BenignWritesPerMCycle: bandwidth(benign),
				Reencryptions:         m.Reencryptions,
				ThrottleStalls:        m.ThrottleStalls,
				ThrottleStallCycles:   m.ThrottleStallCycles,
				ObsThrottleStalls:     sumSeries(rec, obs.SeriesThrottleStalls),
			})
		}
		// The baseline cell runs one core, so RoleSplit() puts it all in
		// the victim histogram.
		_, baseVictim := recs[ci+3].RoleSplit()
		baseP99 := baseVictim.Quantile(0.99)
		baseWrites := attackWrites(ms[ci+3])
		for k, mitigated := range []bool{false, true} {
			m := ms[ci+4+k]
			rec := recs[ci+4+k]
			attacker, victim := rec.RoleSplit(0)
			p99 := victim.Quantile(0.99)
			slow := 0.0
			if baseP99 > 0 {
				slow = float64(p99) / float64(baseP99)
			}
			amp := 0.0
			if baseWrites > 0 {
				amp = float64(attackWrites(m)) / float64(baseWrites)
			}
			res.DoS = append(res.DoS, DoSCell{
				Scheme:             sch.String(),
				Mitigated:          mitigated,
				Writes:             attackWrites(m),
				BaselineWrites:     baseWrites,
				Amplification:      amp,
				VictimP99:          p99,
				AttackerP99:        attacker.Quantile(0.99),
				BaselineP99:        baseP99,
				Slowdown:           slow,
				WQStallCycles:      m.WQStallCycles,
				WearRotations:      m.WearRotations,
				WearRemappedWrites: m.WearRemappedWrites,
				ObsWearRemaps:      sumSeries(rec, obs.SeriesWearRemaps),
			})
		}
		ci += 6
	}

	for _, mode := range ao.Modes {
		off, on, err := crashLoopCells(mode, o, ao)
		if err != nil {
			return nil, fmt.Errorf("attack: crash loop %v: %w", mode, err)
		}
		res.CrashLoop = append(res.CrashLoop, off, on)
	}
	return res, nil
}

// sumSeries totals a recorder's counting series over the whole run.
func sumSeries(rec *obs.Recorder, s obs.SeriesID) uint64 {
	var total uint64
	for _, v := range rec.SeriesValues(s) {
		total += uint64(v)
	}
	return total
}

// loopPoint is one scanned crash point and its recovery cost.
type loopPoint struct {
	at   int
	cost int
}

// scanRecoveryCosts measures the recovery cost of up to 64 evenly
// strided crash points over the workload's persist timeline, all forked
// from one run, and returns them sorted worst-first (ties by earlier
// crash point).
func scanRecoveryCosts(p crash.Params) ([]loopPoint, error) {
	total, err := crash.TotalPersists(p)
	if err != nil {
		return nil, err
	}
	if total == 0 {
		return nil, fmt.Errorf("workload %q produced no persists", p.Workload)
	}
	stride := total / 64
	if stride < 1 {
		stride = 1
	}
	var at []int
	for a := 0; a < total; a += stride {
		at = append(at, a)
	}
	costs, err := crash.RecoveryCosts(p, at)
	if err != nil {
		return nil, err
	}
	points := make([]loopPoint, len(at))
	for i := range at {
		points[i] = loopPoint{at: at[i], cost: costs[i]}
	}
	sort.SliceStable(points, func(i, j int) bool {
		if points[i].cost != points[j].cost {
			return points[i].cost > points[j].cost
		}
		return points[i].at < points[j].at
	})
	return points, nil
}

// crashLoopCells runs the malicious crash loop for one machine mode:
// find the worst crash points of the hammer's persist timeline, crash
// there repeatedly, and compare recovery behavior without and with the
// recovery-work bound.
func crashLoopCells(mode machine.Mode, o Opts, ao AttackOpts) (off, on CrashLoopCell, err error) {
	pAtk := crash.Params{
		Mode:     mode,
		Workload: "ctrhammer",
		Steps:    ao.CrashSteps,
		Seed:     o.Seed,
		Attack:   workload.AttackConfig{HotPages: ao.CrashSteps + 2},
	}
	pBase := crash.Params{Mode: mode, Workload: "array", Steps: ao.CrashSteps, Seed: o.Seed}

	atkPoints, err := scanRecoveryCosts(pAtk)
	if err != nil {
		return off, on, err
	}
	basePoints, err := scanRecoveryCosts(pBase)
	if err != nil {
		return off, on, err
	}
	worst := atkPoints[0]
	baselineWorst := basePoints[0].cost
	amp := float64(worst.cost) / float64(max(baselineWorst, 1))

	iters := ao.LoopIterations
	if iters > len(atkPoints) {
		iters = len(atkPoints)
	}
	schedule := atkPoints[:iters]

	runLoop := func(bound int) (CrashLoopCell, error) {
		cell := CrashLoopCell{
			Mode:                  mode.String(),
			Mitigated:             bound > 0,
			WorstCrashAt:          worst.at,
			WorstRecoveryPersists: worst.cost,
			BaselineWorst:         baselineWorst,
			Amplification:         amp,
			Iterations:            iters,
			AllConsistent:         true,
		}
		results := make([]crash.LoopResult, iters)
		err := par.ForEachIndex(o.Parallel, iters, func(i int) error {
			r, err := crash.RunLoopIteration(pAtk, schedule[i].at, bound)
			if err != nil {
				return err
			}
			results[i] = r
			return nil
		})
		if err != nil {
			return cell, err
		}
		for _, r := range results {
			cell.TotalRecoveryPersists += r.RecoveryPersists
			cell.TotalPasses += r.Passes
			cell.BoundedPasses += r.BoundedPasses
			if r.MaxPassPersists > cell.MaxPassPersists {
				cell.MaxPassPersists = r.MaxPassPersists
			}
			if !r.Consistent {
				cell.AllConsistent = false
			}
		}
		return cell, nil
	}
	if off, err = runLoop(0); err != nil {
		return off, on, err
	}
	if on, err = runLoop(ao.RecoveryBound); err != nil {
		return off, on, err
	}

	// Differential fault injection at the worst crash point (with a
	// nested recovery crash) under strong ECC, recovery bound enabled:
	// the mitigated loop must stay survivable even on faulty media.
	pf := pAtk
	pf.RecoveryBound = ao.RecoveryBound
	plan, err := mediaPlan(o.Seed)
	if err != nil {
		return off, on, err
	}
	fres, err := crash.RunFault(pf, plan, fault.ECCStrong(), worst.at, 1)
	if err != nil {
		return off, on, err
	}
	on.FaultOutcome = fres.Outcome.String()
	on.FaultSurvivable = fres.Outcome.Survivable()
	return off, on, nil
}

// StrictViolations returns the graceful-degradation violations -strict
// fails on: an attack that did no damage unmitigated (amplification <
// 2x, no victim slowdown), a mitigation that did not measurably reduce
// it, a recovery pass exceeding the bound, an inconsistent crash-loop
// recovery, or a non-survivable fault outcome. An empty slice means the
// attack story held.
func (r *AttackResult) StrictViolations() []string {
	var v []string
	for i := 0; i+1 < len(r.Hammer); i += 2 {
		off, on := r.Hammer[i], r.Hammer[i+1]
		if off.Amplification < 2 {
			v = append(v, fmt.Sprintf("hammer/%s: amplification %.2fx < 2x unmitigated", off.Scheme, off.Amplification))
		}
		if on.WritesPerMCycle > 0.75*off.WritesPerMCycle {
			v = append(v, fmt.Sprintf("hammer/%s: throttle did not reduce induced write bandwidth (%.1f -> %.1f writes/Mcycle)",
				on.Scheme, off.WritesPerMCycle, on.WritesPerMCycle))
		}
		if on.ThrottleStalls == 0 {
			v = append(v, fmt.Sprintf("hammer/%s: throttle never engaged", on.Scheme))
		}
		if on.ObsThrottleStalls < on.ThrottleStalls {
			v = append(v, fmt.Sprintf("hammer/%s: obs series counts %d stalls but stats %d",
				on.Scheme, on.ObsThrottleStalls, on.ThrottleStalls))
		}
	}
	for i := 0; i+1 < len(r.DoS); i += 2 {
		off, on := r.DoS[i], r.DoS[i+1]
		if off.Amplification < 2 {
			v = append(v, fmt.Sprintf("dos/%s: write amplification %.2fx < 2x unmitigated", off.Scheme, off.Amplification))
		}
		// A single attacker core holds at most one parked write-queue
		// waiter in the one-op-at-a-time core model, which caps the
		// victim's admission stall per persist group — so the p99 gate is
		// "measurable" (5%), not the 2x the write amplification clears.
		// SuperMem sits closest to the gate: its counter-write coalescing
		// absorbs much of the attacker's queue pressure.
		if off.Slowdown < 1.05 {
			v = append(v, fmt.Sprintf("dos/%s: victim slowdown %.2fx < 1.05x unmitigated", off.Scheme, off.Slowdown))
		}
		if on.Slowdown >= off.Slowdown {
			v = append(v, fmt.Sprintf("dos/%s: wear leveling did not reduce victim slowdown (%.2fx -> %.2fx)",
				on.Scheme, off.Slowdown, on.Slowdown))
		}
		if on.WearRotations == 0 {
			v = append(v, fmt.Sprintf("dos/%s: wear rotation never engaged", on.Scheme))
		}
		if on.ObsWearRemaps < on.WearRemappedWrites {
			v = append(v, fmt.Sprintf("dos/%s: obs series counts %d remaps but stats %d",
				on.Scheme, on.ObsWearRemaps, on.WearRemappedWrites))
		}
	}
	for i := 0; i+1 < len(r.CrashLoop); i += 2 {
		off, on := r.CrashLoop[i], r.CrashLoop[i+1]
		if off.Amplification < 2 {
			v = append(v, fmt.Sprintf("crashloop/%s: recovery amplification %.2fx < 2x", off.Mode, off.Amplification))
		}
		if on.MaxPassPersists > r.RecoveryBound+recoveryPassSlack {
			v = append(v, fmt.Sprintf("crashloop/%s: bounded pass did %d persists, bound %d (+%d slack)",
				on.Mode, on.MaxPassPersists, r.RecoveryBound, recoveryPassSlack))
		}
		if on.BoundedPasses == 0 {
			v = append(v, fmt.Sprintf("crashloop/%s: recovery bound never engaged", on.Mode))
		}
		if !off.AllConsistent {
			v = append(v, fmt.Sprintf("crashloop/%s: inconsistent recovery unmitigated", off.Mode))
		}
		if !on.AllConsistent {
			v = append(v, fmt.Sprintf("crashloop/%s: inconsistent recovery with bound", on.Mode))
		}
		if !on.FaultSurvivable {
			v = append(v, fmt.Sprintf("crashloop/%s: fault outcome %q not survivable under strong ECC",
				on.Mode, on.FaultOutcome))
		}
	}
	return v
}

// String renders the result as aligned tables.
func (r *AttackResult) String() string {
	var b strings.Builder
	onoff := func(m bool) string {
		if m {
			return "on"
		}
		return "off"
	}
	fmt.Fprintf(&b, "Attack sweep: %d steps, throttle %d/%d, wear %d, recovery bound %d\n\n",
		r.Steps, r.ThrottlePeriod, r.ThrottleBurst, r.WearPeriod, r.RecoveryBound)
	fmt.Fprintf(&b, "Counter-overflow hammer (induced writes vs benign twin at equal flush count):\n")
	fmt.Fprintf(&b, "%-10s %-5s %10s %10s %6s %10s %8s %8s %12s\n",
		"scheme", "mitig", "writes", "cycles", "amp", "wr/Mcyc", "reenc", "stalls", "stall-cyc")
	for _, c := range r.Hammer {
		fmt.Fprintf(&b, "%-10s %-5s %10d %10d %5.1fx %10.1f %8d %8d %12d\n",
			c.Scheme, onoff(c.Mitigated), c.Writes, c.Cycles, c.Amplification, c.WritesPerMCycle,
			c.Reencryptions, c.ThrottleStalls, c.ThrottleStallCycles)
	}
	fmt.Fprintf(&b, "\nHot-bank write DoS (victim p99 vs the same program alone):\n")
	fmt.Fprintf(&b, "%-10s %-5s %6s %10s %10s %8s %12s %8s %8s\n",
		"scheme", "mitig", "amp", "victim-p99", "base-p99", "slowdown", "wq-stall", "rotations", "remaps")
	for _, c := range r.DoS {
		fmt.Fprintf(&b, "%-10s %-5s %5.1fx %10d %10d %7.2fx %12d %8d %8d\n",
			c.Scheme, onoff(c.Mitigated), c.Amplification, c.VictimP99, c.BaselineP99, c.Slowdown,
			c.WQStallCycles, c.WearRotations, c.WearRemappedWrites)
	}
	fmt.Fprintf(&b, "\nMalicious crash loop (recovery persists at the worst crash point):\n")
	fmt.Fprintf(&b, "%-16s %-5s %8s %6s %6s %6s %7s %8s %8s %8s %-10s\n",
		"mode", "mitig", "worst@", "worst", "base", "amp", "passes", "max-pass", "bounded", "consist", "fault")
	for _, c := range r.CrashLoop {
		fault := c.FaultOutcome
		if fault == "" {
			fault = "-"
		}
		fmt.Fprintf(&b, "%-16s %-5s %8d %6d %6d %5.1fx %7d %8d %8d %8v %-10s\n",
			c.Mode, onoff(c.Mitigated), c.WorstCrashAt, c.WorstRecoveryPersists, c.BaselineWorst,
			c.Amplification, c.TotalPasses, c.MaxPassPersists, c.BoundedPasses, c.AllConsistent, fault)
	}
	return b.String()
}
