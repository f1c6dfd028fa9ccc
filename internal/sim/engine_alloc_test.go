package sim

import "testing"

// pingEv reschedules itself a fixed number of times at pseudo-random
// delays.
type pingEv struct {
	e     *Engine
	rng   lcg
	left  int
	fired int
}

func (p *pingEv) Fire(now uint64) {
	p.fired++
	if p.left > 0 {
		p.left--
		p.e.AtObj(now+p.rng.delay(), p)
	}
}

// TestEventObjZeroAllocs is the event-loop allocation gate: scheduling
// a pre-allocated EventObj and firing it must not allocate once the
// queue storage is warm. Sixteen chains keep events pending behind the
// slot, so the gate covers the sorted queue as well as the slot. CI's
// bench-smoke job fails on any regression here.
func TestEventObjZeroAllocs(t *testing.T) {
	var e Engine
	pings := make([]*pingEv, 16)
	for i := range pings {
		pings[i] = &pingEv{e: &e, rng: lcg(i + 1)}
	}
	start := func(left int) {
		for _, p := range pings {
			p.left = left
			e.AtObj(e.Now(), p)
		}
		e.Run()
	}
	start(256) // warm the queue's backing array
	allocs := testing.AllocsPerRun(500, func() { start(4) })
	if allocs != 0 {
		t.Fatalf("EventObj push/pop allocates %v objects per run, want 0", allocs)
	}
	for _, p := range pings {
		if p.fired == 0 {
			t.Fatal("event never fired")
		}
	}
}

// TestAtObjOrdering verifies that one object scheduled several times
// fires once per pending item, interleaved with other events in strict
// (at, seq) order.
func TestAtObjOrdering(t *testing.T) {
	var e Engine
	var log []firing
	shared := &logEv{id: 1, log: &log}
	e.AtObj(5, shared)
	e.AtObj(5, &logEv{id: 2, log: &log})
	e.AtObj(5, shared)
	e.AtObj(4, &logEv{id: 0, log: &log})
	e.AtObj(6, shared)
	e.Run()
	want := []firing{{0, 4}, {1, 5}, {2, 5}, {1, 5}, {1, 6}}
	if len(log) != len(want) {
		t.Fatalf("fired %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("fired %v, want %v", log, want)
		}
	}
}

// TestAtObjPastPanics checks the past-schedule contract when time was
// advanced by RunUntil rather than by a fired event.
func TestAtObjPastPanics(t *testing.T) {
	var e Engine
	e.RunUntil(10)
	defer func() {
		if recover() == nil {
			t.Fatal("AtObj accepted an event in the past")
		}
	}()
	e.AtObj(5, nopEv{})
}
