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

// sweep fuzzes one mode on one workload at every crash point of the
// run, without nested crashes, and returns its verdict.
func sweep(t *testing.T, mode machine.Mode, wl string, steps int) ModeVerdict {
	t.Helper()
	res, err := Fuzz(FuzzParams{Workload: wl, Steps: steps, Modes: []machine.Mode{mode}})
	if err != nil {
		t.Fatal(err)
	}
	return res.Verdicts[0]
}

// The headline crash-safety property: on a SuperMem machine, EVERY
// persistence-step crash point leaves every workload recoverable to a
// transaction boundary.
func TestSuperMemSweepAllWorkloads(t *testing.T) {
	for _, wl := range workload.Names {
		wl := wl
		t.Run(wl, func(t *testing.T) {
			v := sweep(t, machine.WTRegister, wl, 6)
			if v.Crashed == 0 {
				t.Fatal("sweep never crashed — no points exercised")
			}
			if !v.Consistent() {
				r := v.Inconsistent[0]
				t.Fatalf("crash@%d after %d txs: %s", r.CrashStep, r.CompletedSteps, r.Detail)
			}
		})
	}
}

// The contrast: a write-back counter cache without battery corrupts
// some crash points (Table 1's No rows), observed through real
// decryption failures.
func TestWBNoBatteryCorrupts(t *testing.T) {
	if sweep(t, machine.WBNoBattery, "array", 6).Consistent() {
		t.Fatal("write-back without battery survived every crash point — the vulnerability is not modelled")
	}
}

func TestBatteryRestoresConsistency(t *testing.T) {
	if v := sweep(t, machine.WBBattery, "array", 5); !v.Consistent() {
		r := v.Inconsistent[0]
		t.Fatalf("battery-backed machine inconsistent at crash@%d: %s", r.CrashStep, r.Detail)
	}
}

// The replay memo hands one n-step replay to every crash point, so two
// replays of the same seed must agree byte for byte: the same lines
// with the same contents, and each verifies the other's memory.
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
		backends := make([]*pmem.Memory, workers)
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

func TestBadWorkload(t *testing.T) {
	if _, err := Run(Params{Mode: machine.WTRegister, Workload: "nope"}, 0); err == nil {
		t.Fatal("Run accepted unknown workload")
	}
}

// Osiris recovers its relaxed counters by probing, so structure-level
// crash sweeps stay consistent despite unpersisted counters.
func TestOsirisSweepConsistent(t *testing.T) {
	if v := sweep(t, machine.Osiris, "queue", 5); !v.Consistent() {
		r := v.Inconsistent[0]
		t.Fatalf("Osiris crash@%d after %d txs: %s", r.CrashStep, r.CompletedSteps, r.Detail)
	}
}
