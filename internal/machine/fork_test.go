package machine

import (
	"bytes"
	"testing"

	"supermem/internal/config"
	"supermem/internal/fault"
)

// A fork taken at a persist recovers exactly as the machine does when a
// crash is armed there, even though the forked machine runs on and
// overwrites every line afterwards.
func TestForkMatchesCrashAtSamePersist(t *testing.T) {
	for _, mode := range []Mode{WTRegister, WTNoRegister, WBBattery, WBNoBattery, Osiris, BMTFull} {
		run := func(m *Machine) {
			for i := 0; i < 6; i++ {
				addr := uint64(i%3) * config.LineSize
				m.Store(addr, bytes.Repeat([]byte{byte(i + 1)}, config.LineSize))
				m.CLWB(addr)
			}
		}
		const at = 3
		driver := newM(t, mode)
		var forked *Machine
		if err := driver.ForkAtPersists([]int{at}, func(i int, f *Machine) { forked = f }); err != nil {
			t.Fatal(err)
		}
		run(driver)
		crashed, err := New(mode, testKey, WithCrashAtPersist(at))
		if err != nil {
			t.Fatal(err)
		}
		run(crashed)
		if forked == nil || !forked.Crashed() || forked.Persists() != crashed.Persists() {
			t.Fatalf("%v: fork %v, want a crashed copy at persist %d", mode, forked, crashed.Persists())
		}
		if forked.pads != driver.pads {
			t.Fatalf("%v: the fork does not share its run's pad cache", mode)
		}
		got, want := forked.Recover(), crashed.Recover()
		for a := uint64(0); a < 3*config.LineSize; a += config.LineSize {
			if g, w := got.Load(a, config.LineSize), want.Load(a, config.LineSize); !bytes.Equal(g, w) {
				t.Fatalf("%v: line %#x recovers to %x from the fork, %x from the crash", mode, a, g[:4], w[:4])
			}
		}
		if !bytes.Equal(got.TreeSnapshot(), want.TreeSnapshot()) {
			t.Fatalf("%v: fork and crash recover different trees", mode)
		}
	}
}

func TestForkAtPersistsRefusals(t *testing.T) {
	m := newM(t, WTRegister)
	for _, points := range [][]int{{-1}, {2, 1}} {
		if err := m.ForkAtPersists(points, func(int, *Machine) {}); err == nil {
			t.Errorf("ForkAtPersists(%v) accepted", points)
		}
	}
	m.SetInjector(fault.NewInjector(fault.Plan{}, fault.ECCOff()))
	if err := m.ForkAtPersists([]int{0}, func(int, *Machine) {}); err == nil {
		t.Error("ForkAtPersists accepted a machine with a fault injector")
	}
}
