package crash

import (
	"reflect"
	"sort"
	"testing"

	"supermem/internal/machine"
	"supermem/internal/workload"
)

// The acceptance property of the differential fuzzer: for every
// workload, the full mode matrix reproduces Table 1 — SuperMem,
// battery-backed write-back, the register-less strawman (under logged
// transactions), Osiris, and the unencrypted baseline are consistent at
// every crash point including nested recovery crashes, and write-back
// without battery is reported corrupt.
func TestFuzzMatchesTable1AllWorkloads(t *testing.T) {
	for _, wl := range workload.Names {
		wl := wl
		t.Run(wl, func(t *testing.T) {
			t.Parallel()
			res, err := Fuzz(FuzzParams{Workload: wl, Steps: 4, Nested: true, MaxNested: 2})
			if err != nil {
				t.Fatal(err)
			}
			if err := res.CheckTable1(); err != nil {
				t.Fatalf("%v\n%s", err, res)
			}
			for _, v := range res.Verdicts {
				if v.Crashed == 0 {
					t.Errorf("%s: sweep never crashed — no points exercised", v.Name)
				}
			}
		})
	}
}

// Determinism contract: for a fixed seed the whole result — sampled
// points, nested points, verdicts, minimization — is identical at any
// worker count.
func TestFuzzDeterministicAcrossParallel(t *testing.T) {
	base := FuzzParams{Workload: "queue", Steps: 4, Seed: 3, MaxPoints: 12, Nested: true, MaxNested: 2}
	p1 := base
	p1.Parallel = 1
	p8 := base
	p8.Parallel = 8
	r1, err := Fuzz(p1)
	if err != nil {
		t.Fatal(err)
	}
	r8, err := Fuzz(p8)
	if err != nil {
		t.Fatal(err)
	}
	// Compare everything except the Parallel knob itself.
	r1.Params.Parallel, r8.Params.Parallel = 0, 0
	if !reflect.DeepEqual(r1, r8) {
		t.Fatalf("parallel=1 and parallel=8 disagree:\n%s\nvs\n%s", r1, r8)
	}
}

// Fuzz crashes each point once, recovers that one machine for the
// outer and every nested check, and memoizes replays. The oracle is the
// algorithm without that sharing, built from independent calls per
// point — Run, RecoveryCost, RunNested — with a shrink whose every
// probe reruns the workload. The verdicts must be identical, minimized
// failures included.
func TestFuzzMatchesIndependentRuns(t *testing.T) {
	for _, wl := range []string{"array", "hashtable"} {
		fp := FuzzParams{Workload: wl, Steps: 3, Nested: true, MaxNested: 2, Modes: AllModes}
		got, err := Fuzz(fp)
		if err != nil {
			t.Fatal(err)
		}
		fp = fp.withDefaults()
		for i, mode := range AllModes {
			want, err := independentVerdict(fp, mode)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Verdicts[i], want) {
				t.Errorf("%s/%v: Fuzz verdict\n%+v\nindependent calls\n%+v", wl, mode, got.Verdicts[i], want)
			}
			// Minimized shrinks the first failure, an outer point in
			// these runs; shrink the last nested failure both ways too.
			for j := len(want.Inconsistent) - 1; j >= 0; j-- {
				if fail := want.Inconsistent[j]; fail.RecoveryCrashStep > 0 {
					p := fp.params(mode)
					sh, err := shrink(p, fail, newReplayMemo(p))
					if err != nil {
						t.Fatal(err)
					}
					ind, err := independentShrink(p, fail)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(sh, ind) {
						t.Errorf("%s/%v: nested shrink of %d/%d: %+v, independent calls %+v", wl, mode, fail.CrashStep, fail.RecoveryCrashStep, sh, ind)
					}
					break
				}
			}
		}
	}
}

func independentVerdict(fp FuzzParams, mode machine.Mode) (ModeVerdict, error) {
	p := fp.params(mode)
	total, stageStarts, err := persistProfile(p)
	if err != nil {
		return ModeVerdict{}, err
	}
	points := samplePoints(total, stageStarts, fp.MaxPoints, fp.SampleSeed)
	v := ModeVerdict{
		Mode: mode, Name: mode.String(),
		TotalPoints: total, Tested: len(points),
		ExpectedOK: ExpectedConsistent(mode, fp.Workload),
	}
	for _, crashAt := range points {
		outer, err := Run(p, crashAt)
		if err != nil {
			return ModeVerdict{}, err
		}
		results := []Result{outer}
		if outer.Crashed {
			v.Crashed++
			rp, err := RecoveryCost(p, crashAt)
			if err != nil {
				return ModeVerdict{}, err
			}
			for _, j := range sampleNested(rp, fp.MaxNested, fp.SampleSeed, crashAt) {
				nres, err := RunNested(p, crashAt, j)
				if err != nil {
					return ModeVerdict{}, err
				}
				results = append(results, nres)
				v.NestedTested++
			}
		}
		for _, r := range results {
			if !r.Consistent {
				v.Inconsistent = append(v.Inconsistent, r)
			}
			v.RecoveryProbes += r.RecoveryProbes
		}
	}
	if len(v.Inconsistent) > 0 {
		if v.Minimized, err = independentShrink(p, v.Inconsistent[0]); err != nil {
			return ModeVerdict{}, err
		}
	}
	return v, nil
}

func independentShrink(p Params, fail Result) (*Shrink, error) {
	sh := &Shrink{CrashStep: fail.CrashStep, RecoveryCrashStep: -1, Detail: fail.Detail}
	nested := fail.RecoveryCrashStep >= 0
	lo, hi := 0, fail.CrashStep
	if nested {
		hi = fail.RecoveryCrashStep
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
		sh.Probes++
		var res Result
		var err error
		if nested {
			res, err = RunNested(p, fail.CrashStep, mid)
		} else {
			res, err = Run(p, mid)
		}
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
	res, r, err := runAndRecover(p, sh.CrashStep, sh.RecoveryCrashStep, nil)
	if err != nil {
		return nil, err
	}
	if !res.Consistent {
		if sh.Detail == "" {
			sh.Detail = res.Detail
		}
		_, tb, err := replay(p, res.CompletedSteps)
		if err != nil {
			return nil, err
		}
		sh.Diffs = diffLines(r, tb)
	}
	return sh, nil
}

// A failing mode is minimized: the shrunk point must itself fail, come
// no later than the first reported failure, and carry the divergent
// byte ranges with their counter lines.
func TestFuzzMinimizesWBNoBatteryFailure(t *testing.T) {
	res, err := Fuzz(FuzzParams{Workload: "array", Steps: 4, Modes: []machine.Mode{machine.WBNoBattery}})
	if err != nil {
		t.Fatal(err)
	}
	v := res.Verdicts[0]
	if v.Consistent() {
		t.Fatal("WB-NoBattery survived every crash point")
	}
	if v.Minimized == nil {
		t.Fatal("failing verdict was not minimized")
	}
	m := v.Minimized
	if m.CrashStep > v.Inconsistent[0].CrashStep {
		t.Fatalf("minimized crash@%d is later than the first failure crash@%d", m.CrashStep, v.Inconsistent[0].CrashStep)
	}
	check, err := Run(res.Params.params(machine.WBNoBattery), m.CrashStep)
	if err != nil {
		t.Fatal(err)
	}
	if check.Consistent {
		t.Fatalf("minimized crash@%d does not actually fail", m.CrashStep)
	}
	if len(m.Diffs) == 0 {
		t.Fatal("minimized failure reports no divergent lines")
	}
	for _, d := range m.Diffs {
		if d.FirstByte > d.LastByte || d.LastByte > 63 {
			t.Fatalf("nonsense byte range [%d,%d] at %#x", d.FirstByte, d.LastByte, d.Addr)
		}
	}
}

// Nested crashes on a SuperMem machine: exhaustively crash every
// persistence step of the recovery path for a mid-run crash point, and
// every double-crash must still recover to a transaction boundary.
func TestNestedRecoveryCrashesConsistent(t *testing.T) {
	p := Params{Mode: machine.WTRegister, Workload: "array", Steps: 4}.withDefaults()
	total, err := TotalPersists(p)
	if err != nil {
		t.Fatal(err)
	}
	// Find a crash point whose recovery actually persists something (a
	// crash mid-mutate, after the log seals, forces a redo reapply); a
	// crash during prepare leaves an unsealed log and recovery writes
	// nothing, which would make the nested sweep vacuous.
	crashAt, rp := -1, 0
	for c := total / 2; c < total; c++ {
		n, err := RecoveryCost(p, c)
		if err != nil {
			t.Fatal(err)
		}
		if n > 0 {
			crashAt, rp = c, n
			break
		}
	}
	if crashAt < 0 {
		t.Fatal("no crash point with a non-empty recovery path")
	}
	for j := 0; j < rp; j++ {
		res, err := RunNested(p, crashAt, j)
		if err != nil {
			t.Fatal(err)
		}
		if !res.RecoveryCrashed {
			t.Fatalf("recovery crash@%d never struck (recovery has %d steps)", j, rp)
		}
		if !res.Consistent {
			t.Fatalf("double crash (outer@%d, recovery@%d) corrupts: %s", crashAt, j, res.Detail)
		}
	}
}

// A nested crash index beyond the recovery path's persist count simply
// never fires; the result reports that.
func TestNestedCrashBeyondRecovery(t *testing.T) {
	p := Params{Mode: machine.WTRegister, Workload: "array", Steps: 3}.withDefaults()
	total, err := TotalPersists(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunNested(p, total/2, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if res.RecoveryCrashed {
		t.Fatal("phantom recovery crash")
	}
	if res.RecoveryCrashStep != -1 {
		t.Fatalf("RecoveryCrashStep = %d, want -1", res.RecoveryCrashStep)
	}
	if !res.Consistent {
		t.Fatalf("single crash inconsistent: %s", res.Detail)
	}
}

func TestSamplePointsExhaustiveWhenBudgetCovers(t *testing.T) {
	got := samplePoints(10, nil, 0, 1)
	if len(got) != 10 {
		t.Fatalf("exhaustive sample has %d points", len(got))
	}
	got = samplePoints(10, nil, 10, 1)
	if len(got) != 10 {
		t.Fatalf("budget==total sample has %d points", len(got))
	}
}

func TestSamplePointsBudgetAndEndpoints(t *testing.T) {
	boundaries := []int{100, 200, 300}
	got := samplePoints(1000, boundaries, 50, 7)
	if len(got) != 50 {
		t.Fatalf("sample size %d, want 50", len(got))
	}
	if !sort.IntsAreSorted(got) {
		t.Fatal("sample not sorted")
	}
	if got[0] != 0 || got[len(got)-1] != 999 {
		t.Fatalf("sample misses endpoints: first=%d last=%d", got[0], got[len(got)-1])
	}
	again := samplePoints(1000, boundaries, 50, 7)
	if !reflect.DeepEqual(got, again) {
		t.Fatal("same seed sampled different points")
	}
	other := samplePoints(1000, boundaries, 50, 8)
	if reflect.DeepEqual(got, other) {
		t.Fatal("different seeds sampled identical points (suspicious)")
	}
}

// The sampler weights the Table 1 stage windows: points within ±3 of a
// stage start must be over-represented versus uniform sampling.
func TestSamplePointsWeightsStageStarts(t *testing.T) {
	boundaries := []int{250, 500, 750}
	near := func(i int) bool {
		for _, b := range boundaries {
			if i >= b-3 && i <= b+3 {
				return true
			}
		}
		return false
	}
	hits := 0
	for seed := int64(1); seed <= 20; seed++ {
		for _, i := range samplePoints(1000, boundaries, 40, seed) {
			if near(i) {
				hits++
			}
		}
	}
	// Uniform sampling would land ~21/1000 of 40*20 = ~17 points in the
	// windows; weighting should produce several times that.
	if hits < 60 {
		t.Fatalf("only %d/800 sampled points near stage starts — weighting not applied", hits)
	}
}

func TestSampleNestedDeterministicPerPoint(t *testing.T) {
	a := sampleNested(100, 5, 1, 42)
	b := sampleNested(100, 5, 1, 42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("nested sample not deterministic")
	}
	if len(a) != 5 || a[0] != 0 || a[len(a)-1] != 99 {
		t.Fatalf("nested sample %v: want 5 sorted points including endpoints", a)
	}
	if got := sampleNested(0, 5, 1, 42); got != nil {
		t.Fatalf("empty recovery sampled %v", got)
	}
	if got := sampleNested(3, 5, 1, 42); len(got) != 3 {
		t.Fatalf("small recovery space sampled %v, want all 3", got)
	}
}
