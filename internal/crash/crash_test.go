package crash

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"supermem/internal/config"
	"supermem/internal/machine"
	"supermem/internal/pmem"
	"supermem/internal/workload"
)

func TestRunWithoutCrashVerifies(t *testing.T) {
	for _, wl := range workload.Names {
		p := Params{Mode: machine.WTRegister, Workload: wl, Steps: 10}
		res, err := Run(p, 1<<30) // crash point never reached
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		if res.Crashed {
			t.Fatalf("%s: phantom crash", wl)
		}
		if !res.Consistent {
			t.Fatalf("%s: clean run inconsistent: %s", wl, res.Detail)
		}
	}
}

// The headline crash-safety property: on a SuperMem machine, EVERY
// persistence-step crash point leaves every workload recoverable to a
// transaction boundary.
func TestSuperMemSweepAllWorkloads(t *testing.T) {
	for _, wl := range workload.Names {
		wl := wl
		t.Run(wl, func(t *testing.T) {
			p := Params{Mode: machine.WTRegister, Workload: wl, Steps: 6}
			stride := 3 // sample every third point to keep the suite fast
			res, err := Sweep(p, stride)
			if err != nil {
				t.Fatal(err)
			}
			if res.Crashed == 0 {
				t.Fatal("sweep never crashed — no points exercised")
			}
			if !res.Consistent() {
				r := res.Inconsistent[0]
				t.Fatalf("crash@%d after %d txs: %s", r.CrashStep, r.CompletedSteps, r.Detail)
			}
		})
	}
}

// The contrast: a write-back counter cache without battery corrupts
// some crash points (Table 1's No rows), observed through real
// decryption failures.
func TestWBNoBatteryCorrupts(t *testing.T) {
	p := Params{Mode: machine.WBNoBattery, Workload: "array", Steps: 6}
	res, err := Sweep(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Consistent() {
		t.Fatal("write-back without battery survived every crash point — the vulnerability is not modelled")
	}
}

func TestBatteryRestoresConsistency(t *testing.T) {
	p := Params{Mode: machine.WBBattery, Workload: "array", Steps: 5}
	res, err := Sweep(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consistent() {
		r := res.Inconsistent[0]
		t.Fatalf("battery-backed machine inconsistent at crash@%d: %s", r.CrashStep, r.Detail)
	}
}

// The replay memo hands one n-step replay to every crash point, so two
// replays of the same seed must agree byte for byte: the same op
// stream, the same lines with the same contents, and each verifies the
// other's backend.
func TestReplayDeterminism(t *testing.T) {
	p := Params{Mode: machine.WTRegister, Workload: "rbtree", Steps: 8}.withDefaults()
	w1, b1, err := replay(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	w2, b2, err := replay(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Ops first: Load below appends Read ops.
	if !reflect.DeepEqual(b1.Ops(), b2.Ops()) {
		t.Fatal("replays recorded different op streams")
	}
	lines := b1.Lines()
	if !reflect.DeepEqual(lines, b2.Lines()) {
		t.Fatalf("replays materialized different lines: %d vs %d", len(lines), len(b2.Lines()))
	}
	for _, base := range lines {
		if x, y := b1.Load(base, config.LineSize), b2.Load(base, config.LineSize); !bytes.Equal(x, y) {
			t.Fatalf("line %#x differs: %x vs %x", base, x, y)
		}
	}
	if err := w1.Verify(b2); err != nil {
		t.Fatalf("replay 1 rejects replay 2: %v", err)
	}
	if err := w2.Verify(b1); err != nil {
		t.Fatalf("replay 2 rejects replay 1: %v", err)
	}
}

// Fuzz workers verify one memoized replay at the same time, so Verify
// must only read its workload. Run under -race: four goroutines share
// one replay from the memo, each verifying its own backend.
func TestSharedReplayVerifiesConcurrently(t *testing.T) {
	const workers = 4
	for _, wl := range workload.Names {
		p := Params{Mode: machine.WTRegister, Workload: wl, Steps: 4}.withDefaults()
		replays := newReplayMemo(p)
		backends := make([]*pmem.TracingBackend, workers)
		for i := range backends {
			var err error
			if _, backends[i], err = replay(p, p.Steps); err != nil {
				t.Fatal(err)
			}
		}
		got := make([]workload.Workload, workers)
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for i := range backends {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if got[i], errs[i] = replays.get(p.Steps); errs[i] == nil {
					errs[i] = got[i].Verify(backends[i])
				}
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Errorf("%s: worker %d: %v", wl, i, err)
			}
			if got[i] != got[0] {
				t.Errorf("%s: worker %d got its own replay, not the shared one", wl, i)
			}
		}
	}
}

func TestSweepString(t *testing.T) {
	p := Params{Mode: machine.WTRegister, Workload: "queue", Steps: 3}
	res, err := Sweep(p, 10)
	if err != nil {
		t.Fatal(err)
	}
	if s := res.String(); s == "" {
		t.Fatal("empty sweep summary")
	}
}

func TestCountPersistsPositive(t *testing.T) {
	p := Params{Mode: machine.WTRegister, Workload: "queue", Steps: 3}.withDefaults()
	n, err := TotalPersists(p)
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 {
		t.Fatalf("TotalPersists = %d", n)
	}
}

// Regression: Sweep used to skip the last-window crash points whenever
// the stride did not divide the persist count, so the final persist —
// the commit-record flush, the most interesting point of all — was
// never exercised. Any stride must now test both endpoints.
func TestSweepAlwaysTestsFinalPersist(t *testing.T) {
	p := Params{Mode: machine.WTRegister, Workload: "queue", Steps: 3}
	total, err := TotalPersists(p)
	if err != nil {
		t.Fatal(err)
	}
	if total < 3 {
		t.Fatalf("TotalPersists = %d, too few to make the stride interesting", total)
	}
	// A stride larger than the whole run: only the endpoints remain.
	res, err := Sweep(p, total*10)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalPoints != 2 {
		t.Fatalf("stride > total tested %d points, want both endpoints {0, %d}", res.TotalPoints, total-1)
	}
	if res.Crashed != 2 {
		t.Fatalf("endpoints tested but only %d crashed — final persist index %d out of range?", res.Crashed, total-1)
	}
	// A non-dividing stride: the regular cadence plus the final index.
	stride := total - 1
	res, err = Sweep(p, stride)
	if err != nil {
		t.Fatal(err)
	}
	want := (total-1)/stride + 1 // points 0, stride, ...
	if (total-1)%stride != 0 {
		want++
	}
	if res.TotalPoints != want {
		t.Fatalf("stride %d over %d persists tested %d points, want %d", stride, total, res.TotalPoints, want)
	}
}

func TestBadWorkload(t *testing.T) {
	if _, err := Run(Params{Mode: machine.WTRegister, Workload: "nope"}, 0); err == nil {
		t.Fatal("Run accepted unknown workload")
	}
}

// Osiris recovers its relaxed counters by probing, so structure-level
// crash sweeps stay consistent despite unpersisted counters.
func TestOsirisSweepConsistent(t *testing.T) {
	p := Params{Mode: machine.Osiris, Workload: "queue", Steps: 5}
	res, err := Sweep(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consistent() {
		r := res.Inconsistent[0]
		t.Fatalf("Osiris crash@%d after %d txs: %s", r.CrashStep, r.CompletedSteps, r.Detail)
	}
}
