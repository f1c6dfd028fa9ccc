package machine

import (
	"bytes"
	"testing"

	"supermem/internal/config"
	"supermem/internal/ctr"
	"supermem/internal/fault"
)

var integrityModes = []Mode{BMTFull, BMTLeaves, Phoenix}

// replayScenario drives the canonical attack the tree exists for: a
// counter line is overwritten, media rolls it back to the *previous*
// persisted value (old bytes with their matching ECC metadata), power
// fails, and the recovered machine reads the counter back from NVM.
func replayScenario(t *testing.T, mode Mode, ecc fault.ECCConfig) *Machine {
	t.Helper()
	m := newM(t, mode)
	plan := fault.Plan{Injections: []fault.Injection{
		{Kind: fault.CtrReplay, Step: 3, Target: 0},
	}}
	m.SetInjector(fault.NewInjector(plan, ecc))
	flush(m, 4096, bytes.Repeat([]byte{0x11}, config.LineSize))
	flush(m, 4096, bytes.Repeat([]byte{0x22}, config.LineSize))
	flush(m, 8192, bytes.Repeat([]byte{0x33}, config.LineSize)) // step 3: replay fires
	m.Crash()
	return m.Recover()
}

func TestCtrReplayCaughtByTreeNotECC(t *testing.T) {
	for _, mode := range integrityModes {
		r := replayScenario(t, mode, fault.ECCStrong())
		r.Load(4096, config.LineSize)
		s := r.FaultStats()
		if s.CtrReplays != 1 {
			t.Fatalf("%v: replay never fired, stats %+v", mode, s)
		}
		// The rollback carries valid ECC metadata: classification must
		// come back Clean — no detection, no silent flag — and only the
		// tree may raise the alarm.
		if s.CtrDetected != 0 || s.CtrSilent != 0 || s.SilentReads != 0 {
			t.Errorf("%v: ECC reacted to a replay: %+v", mode, s)
		}
		if s.CtrTreeDetected == 0 {
			t.Errorf("%v: replayed counter line not flagged by the tree", mode)
		}
	}
}

// TestCtrReplayInvisibleWithoutTree pins the hazard baseline: the same
// replay against a mode without an integrity tree is consumed with no
// signal at all — which is exactly why Detected-by-tree exists.
func TestCtrReplayInvisibleWithoutTree(t *testing.T) {
	r := replayScenario(t, WTRegister, fault.ECCStrong())
	r.Load(4096, config.LineSize)
	s := r.FaultStats()
	if s.CtrReplays != 1 {
		t.Fatalf("replay never fired, stats %+v", s)
	}
	if s.CtrTreeDetected != 0 || s.CtrDetected != 0 || s.CtrSilent != 0 {
		t.Fatalf("treeless mode produced a detection signal: %+v", s)
	}
}

// TestTreeVerifyStubRegression is the acceptance regression: with tree
// verification stubbed out, the replay goes completely unnoticed. If a
// refactor ever severs readCtr from VerifyLeaf, the companion test
// above fails the same way this stubbed run behaves.
func TestTreeVerifyStubRegression(t *testing.T) {
	for _, mode := range integrityModes {
		r := replayScenario(t, mode, fault.ECCStrong())
		r.SetTreeVerify(false)
		r.Load(4096, config.LineSize)
		if s := r.FaultStats(); s.CtrTreeDetected != 0 {
			t.Fatalf("%v: stubbed verification still detected: %+v", mode, s)
		}
		// Re-enabling verification catches it on the next NVM fetch.
		r.SetTreeVerify(true)
		r2 := r.Recover()
		r2.Load(4096, config.LineSize)
		if s := r2.FaultStats(); s.CtrTreeDetected == 0 {
			t.Fatalf("%v: re-enabled verification missed the replay: %+v", mode, s)
		}
	}
}

// TestCtrCorruptSilentECCCaughtByTree: with ECC off, counter-line
// corruption is consumed silently by the ECC model — the tree is the
// only detector left standing.
func TestCtrCorruptSilentECCCaughtByTree(t *testing.T) {
	for _, mode := range integrityModes {
		m := newM(t, mode)
		plan := fault.Plan{Injections: []fault.Injection{
			{Kind: fault.CtrCorrupt, Step: 2, Target: 0, Arg: 3 | 21<<8},
		}}
		m.SetInjector(fault.NewInjector(plan, fault.ECCOff()))
		flush(m, 4096, bytes.Repeat([]byte{0x42}, config.LineSize))
		flush(m, 8192, bytes.Repeat([]byte{0x43}, config.LineSize)) // step 2: corruption
		m.Crash()
		r := m.Recover()
		r.Load(4096, config.LineSize)
		s := r.FaultStats()
		if s.CtrSilent == 0 {
			t.Fatalf("%v: ECC-off corruption was not silent: %+v", mode, s)
		}
		if s.CtrTreeDetected == 0 {
			t.Errorf("%v: ECC-silent counter corruption missed by the tree", mode)
		}
	}
}

// TestIntegrityModesStayConsistent: without faults, the tree must be
// pure observation — every integrity mode round-trips and recovers
// byte-exact, and clean verifies raise nothing.
func TestIntegrityModesStayConsistent(t *testing.T) {
	for _, mode := range integrityModes {
		m := newM(t, mode)
		m.SetInjector(fault.NewInjector(fault.Plan{}, fault.ECCStrong()))
		p1 := bytes.Repeat([]byte{0xA1}, config.LineSize)
		p2 := bytes.Repeat([]byte{0xB2}, config.LineSize)
		flush(m, 4096, p1)
		flush(m, 4096+config.LineSize, p2)
		m.Crash()
		r := m.Recover()
		if got := r.Load(4096, config.LineSize); !bytes.Equal(got, p1) {
			t.Fatalf("%v: line 1 diverged after recovery", mode)
		}
		if got := r.Load(4096+config.LineSize, config.LineSize); !bytes.Equal(got, p2) {
			t.Fatalf("%v: line 2 diverged after recovery", mode)
		}
		if s := r.FaultStats(); s.CtrTreeDetected != 0 {
			t.Fatalf("%v: clean run raised a tree detection: %+v", mode, s)
		}
		if st := r.TreeStats(); st.Verifies == 0 {
			t.Fatalf("%v: recovery reads never consulted the tree", mode)
		}
	}
}

// TestTreeRecoveryCost pins the persistence-level tradeoff through the
// machine: full-path persistence recovers with a single root check,
// leaf-only persistence pays an interior rebuild.
func TestTreeRecoveryCost(t *testing.T) {
	cost := map[Mode]uint64{}
	for _, mode := range []Mode{BMTFull, BMTLeaves} {
		m := newM(t, mode)
		for i := uint64(0); i < 8; i++ {
			flush(m, 4096+i*config.PageSize, bytes.Repeat([]byte{byte(i)}, config.LineSize))
		}
		m.Crash()
		cost[mode] = m.Recover().TreeStats().RecoveryHashes
	}
	if cost[BMTFull] != 1 {
		t.Errorf("BMT-Full recovery hashes = %d, want 1", cost[BMTFull])
	}
	if cost[BMTLeaves] <= cost[BMTFull] {
		t.Errorf("BMT-Leaves recovery (%d hashes) not costlier than full persistence (%d)",
			cost[BMTLeaves], cost[BMTFull])
	}
}

// TestTreeSnapshotMatchesMode: integrity modes expose a non-empty
// canonical snapshot; treeless modes expose none.
func TestTreeSnapshotMatchesMode(t *testing.T) {
	for _, mode := range integrityModes {
		m := newM(t, mode)
		flush(m, 4096, bytes.Repeat([]byte{1}, config.LineSize))
		if len(m.TreeSnapshot()) == 0 {
			t.Errorf("%v: empty tree snapshot", mode)
		}
	}
	m := newM(t, WTRegister)
	flush(m, 4096, bytes.Repeat([]byte{1}, config.LineSize))
	if m.TreeSnapshot() != nil {
		t.Error("treeless mode produced a tree snapshot")
	}
	if s := m.TreeStats(); s != (m.TreeStats()) {
		t.Error("treeless TreeStats not zero-valued")
	}
}

// TestVerifyCtrZeroAllocs holds the zero-allocation line on the
// tree-verify read path (it runs on every counter-cache miss).
func TestVerifyCtrZeroAllocs(t *testing.T) {
	m := newM(t, Phoenix)
	flush(m, 4096, bytes.Repeat([]byte{0x5A}, config.LineSize))
	page := uint64(4096 / config.PageSize)
	cl, ok := m.nvmCtr[page]
	if !ok {
		t.Fatal("counter page never persisted")
	}
	packed := cl.Pack()
	if avg := testing.AllocsPerRun(200, func() { m.verifyCtr(page, packed) }); avg != 0 {
		t.Fatalf("verifyCtr allocates %.1f per run, want 0", avg)
	}
}

// TestThrottledBumpSurvivesCrashUnderIntegrityTrees is the mitigation x
// integrity interlock. The overflow throttle is backpressure in time
// (internal/core); it never changes what the machine persists, so a
// throttled bump is functionally an ordinary wrapping one. A hammered
// line that wraps its minor twice — the overflow the throttle would
// stall — then crashes mid-re-encryption and recovers through the
// bounded, staged path must still decrypt correctly and raise zero
// integrity-tree detections under every tree mode.
func TestThrottledBumpSurvivesCrashUnderIntegrityTrees(t *testing.T) {
	for _, mode := range []Mode{BMTFull, BMTLeaves, Phoenix} {
		t.Run(mode.String(), func(t *testing.T) {
			// The hammer sequence: populate page 0, then flush line 0 until
			// the minor wraps twice.
			want := make([][]byte, config.LinesPerPage)
			hammer := func(m *Machine) {
				for i := 0; i < config.LinesPerPage; i++ {
					want[i] = []byte{byte(i), byte(255 - i), 0x5A}
					m.Store(uint64(i*config.LineSize), want[i])
					m.CLWB(uint64(i * config.LineSize))
				}
				for n := 0; n < 2*ctr.MinorMax; n++ {
					m.Store(0, []byte{byte(n), 0xAA, 0x11})
					m.CLWB(0)
				}
			}
			// Probe run: find the persist index where the second overflow's
			// re-encryption storm begins. A wrapping flush persists a whole
			// page of line rewrites instead of the usual couple of steps, so
			// the storms announce themselves as jumps in the persist index.
			probe := newM(t, mode)
			preWrap, wrapN, storms := -1, -1, 0
			for i := 0; i < config.LinesPerPage; i++ {
				probe.Store(uint64(i*config.LineSize), []byte{byte(i), byte(255 - i), 0x5A})
				probe.CLWB(uint64(i * config.LineSize))
			}
			for n := 0; n < 2*ctr.MinorMax; n++ {
				before := probe.Persists()
				probe.Store(0, []byte{byte(n), 0xAA, 0x11})
				probe.CLWB(0)
				if probe.Persists()-before > 10 {
					if storms++; storms == 2 {
						preWrap, wrapN = before, n
						break
					}
				}
			}
			if preWrap < 0 {
				t.Fatal("hammer never reached a second overflow")
			}

			// Real run: crash three persists into the second storm, then
			// recover with a tight work bound so recovery is staged.
			m := newM(t, mode, WithCrashAtPersist(preWrap+3), WithRecoveryBound(4))
			hammer(m)
			r := m.Recover()
			for r.RecoveryPending() {
				r.ResumeRecovery()
			}
			if r.BoundedRecoveries() == 0 {
				t.Fatal("recovery bound 4 never staged a ~64-line re-encryption completion")
			}
			// Line 0 holds one of its two architecturally consistent values:
			// the storm re-encrypts the line's current (cached) content, so
			// depending on where the crash cut, recovery completes with
			// either the wrapping write's value or the one before it. Every
			// other line must hold its populate value exactly.
			pre := []byte{byte(wrapN - 1), 0xAA, 0x11}
			post := []byte{byte(wrapN), 0xAA, 0x11}
			if got := r.Load(0, 3); !bytes.Equal(got, pre) && !bytes.Equal(got, post) {
				t.Fatalf("recovered line 0 reads %v, want %v or %v", got, pre, post)
			}
			for i := 1; i < config.LinesPerPage; i++ {
				if got := r.Load(uint64(i*config.LineSize), 3); !bytes.Equal(got, want[i]) {
					t.Fatalf("recovered line %d reads %v, want %v", i, got, want[i])
				}
			}
			cl, ok := r.PersistedCounter(0)
			if !ok {
				t.Fatal("no persisted counter line after recovery")
			}
			if cl.Major != 2 {
				t.Fatalf("persisted major = %d after two overflows, want 2", cl.Major)
			}
			if got := r.FaultStats().CtrTreeDetected; got != 0 {
				t.Fatalf("tree flagged %d detections on clean staged recovery", got)
			}
		})
	}
}
