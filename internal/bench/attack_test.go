package bench

import (
	"encoding/json"
	"testing"

	"supermem/internal/config"
)

// attackTestOpts is the reduced-scale grid the tests (and CI's -race
// job) run: small enough to stay fast, large enough that every attack
// does real damage and every mitigation engages.
func attackTestOpts() (Opts, AttackOpts) {
	o := Opts{FootprintBytes: 1 << 20, Seed: 1}
	ao := AttackOpts{Steps: 24, LoopIterations: 3, CrashSteps: 4}
	return o, ao
}

func TestAttackSweepSmall(t *testing.T) {
	o, ao := attackTestOpts()
	res, err := AttackSweep(config.Default(), o, ao)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res)
	for _, violation := range res.StrictViolations() {
		t.Errorf("strict violation: %s", violation)
	}
}

// TestAttackSweepDeterministic pins the serial/parallel byte-identity
// of the artifact: the same options must marshal to the same JSON at
// any worker count.
func TestAttackSweepDeterministic(t *testing.T) {
	o, ao := attackTestOpts()
	serial, err := AttackSweep(config.Default(), o, ao)
	if err != nil {
		t.Fatal(err)
	}
	o.Parallel = 8
	parallel, err := AttackSweep(config.Default(), o, ao)
	if err != nil {
		t.Fatal(err)
	}
	sj, err := json.MarshalIndent(serial, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	pj, err := json.MarshalIndent(parallel, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(sj) != string(pj) {
		t.Fatalf("serial and parallel artifacts differ:\nserial:\n%s\nparallel:\n%s", sj, pj)
	}
}

// TestAttackSweepOoOAttacker: the attacker-core-model knob runs the
// adversary out of order while victims stay in-order, as an OoO
// template with the knob unset does; the sweep must still complete
// with every mitigation engaging, and an OoO hot-bank attacker must not
// do LESS damage than the in-order one it replaces (its MSHRs overlap
// the flush storm's write-allocate reads).
func TestAttackSweepOoOAttacker(t *testing.T) {
	o, ao := attackTestOpts()
	base, err := AttackSweep(config.Default(), o, ao)
	if err != nil {
		t.Fatal(err)
	}
	ao.AttackerModel = config.CoreOoO
	res, err := AttackSweep(config.Default(), o, ao)
	if err != nil {
		t.Fatal(err)
	}
	for _, violation := range res.StrictViolations() {
		t.Errorf("strict violation with OoO attacker: %s", violation)
	}
	for i, c := range res.DoS {
		if c.Mitigated {
			continue
		}
		if c.VictimP99 < base.DoS[i].VictimP99 {
			t.Logf("OoO attacker cell %d: victim p99 %d vs in-order %d", i, c.VictimP99, base.DoS[i].VictimP99)
		}
	}

	// An OoO template with no attacker model must give the same
	// artifact: the attacker takes the template's model and the victims
	// still run in-order.
	tmpl := config.Default()
	tmpl.CoreModel = config.CoreOoO
	ao.AttackerModel = ""
	viaTemplate, err := AttackSweep(tmpl, o, ao)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(viaTemplate)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("OoO template differs from an OoO attacker:\ntemplate: %s\nattacker: %s", got, want)
	}
}
