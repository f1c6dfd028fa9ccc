package crash

import (
	"testing"

	"supermem/internal/config"
	"supermem/internal/ctr"
	"supermem/internal/fault"
	"supermem/internal/machine"
)

// crossPlan is the standard fault mix for the cross-product tests: one
// uncorrectable flip, a stuck cell, a torn write, and a counter-line
// corruption, spread over the first few post-setup persist steps.
func crossPlan() fault.Plan {
	return fault.Plan{Injections: []fault.Injection{
		{Kind: fault.BitFlip, Step: 1, Target: 0, Arg: 2 | 11<<8},
		{Kind: fault.StuckAt, Step: 2, Target: 1, Arg: 77},
		{Kind: fault.TornWrite, Step: 4, Arg: 0x3C},
		{Kind: fault.CtrCorrupt, Step: 3, Target: 0, Arg: 3 | 21<<8},
	}}
}

// The headline claim: with strong ECC, every injected media fault —
// across all six machine modes, through a crash and a nested recovery
// crash — is Detected, Recovered, or attributable to the crash mode
// itself. Zero Silent.
func TestFaultCrashCrossProductNoSilentWithECC(t *testing.T) {
	for _, mode := range AllModes {
		for _, crashAt := range []int{-1, 3, 6} {
			recoveryCrashAt := -1
			if crashAt >= 0 {
				recoveryCrashAt = 1
			}
			p := Params{Mode: mode, Workload: "array", Steps: 8, Seed: 7}
			res, err := RunFault(p, crossPlan(), fault.ECCStrong(), crashAt, recoveryCrashAt)
			if err != nil {
				t.Fatalf("%v crash@%d: %v", mode, crashAt, err)
			}
			if !res.Outcome.Survivable() {
				t.Errorf("%v crash@%d: outcome %v (stats %+v): silent corruption with ECC on",
					mode, crashAt, res.Outcome, res.Stats)
			}
			if res.Stats.Injected == 0 {
				t.Errorf("%v crash@%d: plan injected nothing", mode, crashAt)
			}
		}
	}
}

// With ECC off the same plan must be reported Silent — and the report
// must be byte-for-byte reproducible run over run (the injector's
// randomness is derived entirely from the plan).
func TestFaultECCOffReportsSilentReproducibly(t *testing.T) {
	p := Params{Mode: machine.WTRegister, Workload: "array", Steps: 8, Seed: 7}
	first, err := RunFault(p, crossPlan(), fault.ECCOff(), 6, -1)
	if err != nil {
		t.Fatal(err)
	}
	if first.Outcome != FaultSilent {
		t.Fatalf("ECC-off outcome = %v (stats %+v), want Silent", first.Outcome, first.Stats)
	}
	second, err := RunFault(p, crossPlan(), fault.ECCOff(), 6, -1)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats != second.Stats || first.Outcome != second.Outcome {
		t.Fatalf("fault run not reproducible:\n  first  %v %+v\n  second %v %+v",
			first.Outcome, first.Stats, second.Outcome, second.Stats)
	}
}

// A generated plan (the faultsweep experiment's path) must also be
// survivable under SECDED for the paper's design.
func TestGeneratedPlanSurvivable(t *testing.T) {
	plan, err := fault.Generate(fault.PlanConfig{
		Seed: 99, Steps: 30, BitFlips: 2, StuckAts: 1, TornWrites: 1, CtrFaults: 1, FlipBitsMax: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := Params{Mode: machine.WTRegister, Workload: "queue", Steps: 10, Seed: 3}
	res, err := RunFault(p, plan, fault.ECCStrong(), 12, -1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Outcome.Survivable() {
		t.Fatalf("generated plan outcome = %v (stats %+v)", res.Outcome, res.Stats)
	}
}

// Faults striking in the middle of an RSR re-encryption sweep — and
// surviving a crash inside the same sweep — must still be caught by
// ECC. This is the sharpest corner of the cross-product: the fault
// lands on a line the re-encryption is about to consume, the power
// fails before the sweep completes, and recovery finishes the job from
// the RSR.
func TestFaultMidRSRReencryptionDetected(t *testing.T) {
	for _, mode := range []machine.Mode{machine.WTRegister, machine.Osiris} {
		m, err := newMachine(Params{Mode: mode}.withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < config.LinesPerPage; i++ {
			m.Store(uint64(i*config.LineSize), []byte{byte(i), byte(i + 1)})
			m.CLWB(uint64(i * config.LineSize))
		}
		for i := 1; i < ctr.MinorMax; i++ { // drive line 0's minor to the limit
			m.Store(0, []byte{0xAA})
			m.CLWB(0)
		}
		// Attach the injector now: its clock counts from here, so step
		// 30 lands mid-way through the 64-line re-encryption sweep the
		// next flush triggers; the crash at step 40 strikes later in the
		// same sweep, and recovery finishes it with the fault in place.
		plan := fault.Plan{Injections: []fault.Injection{
			{Kind: fault.BitFlip, Step: 30, Target: 5, Arg: 2 | 9<<8},
		}}
		m.SetInjector(fault.NewInjector(plan, fault.ECCStrong()))
		m.ArmCrashAtPersist(40)
		m.Store(0, []byte{0xBB})
		m.CLWB(0)
		if !m.Crashed() {
			t.Fatalf("%v: crash never struck mid-sweep", mode)
		}
		r := m.Recover()
		for i := 0; i < config.LinesPerPage; i++ {
			r.Load(uint64(i*config.LineSize), 2)
		}
		s := r.FaultStats()
		if s.Injected == 0 {
			t.Fatalf("%v: mid-RSR fault never fired", mode)
		}
		if s.TotalSilent() != 0 {
			t.Fatalf("%v: silent corruption through RSR recovery: %+v", mode, s)
		}
		if s.TotalDetected()+s.TotalCorrected() == 0 {
			t.Fatalf("%v: corrupted line consumed with no ECC signal: %+v", mode, s)
		}
	}
}
