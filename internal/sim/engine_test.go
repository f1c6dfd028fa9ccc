package sim

import (
	"container/heap"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// firing is one entry of a logEv log: which event fired, and when.
type firing struct {
	id int
	at uint64
}

// logEv appends its id and fire time to a shared log.
type logEv struct {
	id  int
	log *[]firing
}

func (l *logEv) Fire(now uint64) { *l.log = append(*l.log, firing{l.id, now}) }

// nopEv is an event that does nothing when it fires.
type nopEv struct{}

func (nopEv) Fire(uint64) {}

// chainEv reschedules itself every gap cycles until it has fired limit
// times.
type chainEv struct {
	e            *Engine
	gap          uint64
	count, limit int
}

func (c *chainEv) Fire(now uint64) {
	c.count++
	if c.count < c.limit {
		c.e.AtObj(now+c.gap, c)
	}
}

func TestEmptyEngine(t *testing.T) {
	var e Engine
	if e.Now() != 0 {
		t.Fatalf("fresh engine Now() = %d, want 0", e.Now())
	}
	if e.Step() {
		t.Fatal("Step() on empty engine returned true")
	}
	if _, ok := e.NextEventAt(); ok {
		t.Fatal("NextEventAt() on empty engine reported an event")
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	var e Engine
	var log []firing
	for _, at := range []uint64{50, 10, 30, 20, 40} {
		e.AtObj(at, &logEv{id: int(at), log: &log})
	}
	e.Run()
	for _, f := range log {
		if f.at != uint64(f.id) {
			t.Errorf("event scheduled for %d fired at %d", f.id, f.at)
		}
	}
	if !sort.SliceIsSorted(log, func(i, j int) bool { return log[i].at < log[j].at }) {
		t.Errorf("events fired out of order: %v", log)
	}
	if len(log) != 5 {
		t.Errorf("fired %d events, want 5", len(log))
	}
}

func TestSameCycleFIFO(t *testing.T) {
	var e Engine
	var log []firing
	for i := 0; i < 10; i++ {
		e.AtObj(100, &logEv{id: i, log: &log})
	}
	e.Run()
	for i, f := range log {
		if f.id != i {
			t.Fatalf("same-cycle events fired out of scheduling order: %v", log)
		}
	}
	if len(log) != 10 {
		t.Fatalf("fired %d events, want 10", len(log))
	}
}

func TestEventsScheduleMoreEvents(t *testing.T) {
	var e Engine
	c := &chainEv{e: &e, gap: 3, limit: 100}
	e.AtObj(1, c)
	e.Run()
	if c.count != 100 {
		t.Fatalf("chained %d events, want 100", c.count)
	}
	if e.Now() != 1+3*99 {
		t.Fatalf("final time = %d, want %d", e.Now(), 1+3*99)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	var e Engine
	e.AtObj(10, nopEv{})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.AtObj(5, nopEv{})
}

func TestRunUntil(t *testing.T) {
	var e Engine
	var log []firing
	for _, at := range []uint64{5, 10, 15, 20} {
		e.AtObj(at, &logEv{id: int(at), log: &log})
	}
	e.RunUntil(12)
	if len(log) != 2 || log[0].id != 5 || log[1].id != 10 {
		t.Fatalf("RunUntil(12) fired wrong set: %v", log)
	}
	if e.Now() != 12 {
		t.Fatalf("RunUntil left Now() = %d, want 12", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2", e.Pending())
	}
	e.Run()
	if len(log) != 4 || log[2].id != 15 || log[3].id != 20 {
		t.Fatalf("remaining events lost after RunUntil: %v", log)
	}
}

func TestRunUntilAdvancesTimeWithNoEvents(t *testing.T) {
	var e Engine
	e.RunUntil(500)
	if e.Now() != 500 {
		t.Fatalf("Now() = %d, want 500", e.Now())
	}
}

func TestNextEventAt(t *testing.T) {
	var e Engine
	e.AtObj(42, nopEv{})
	e.AtObj(17, nopEv{})
	at, ok := e.NextEventAt()
	if !ok || at != 17 {
		t.Fatalf("NextEventAt() = %d,%v, want 17,true", at, ok)
	}
}

// Property: for any random schedule, events fire in nondecreasing time
// order and every event fires exactly once.
func TestQuickOrdering(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var e Engine
		var log []firing
		total := int(n%64) + 1
		for i := 0; i < total; i++ {
			e.AtObj(uint64(rng.Intn(1000)), &logEv{id: i, log: &log})
		}
		e.Run()
		seen := make([]bool, total)
		for i, ev := range log {
			if i > 0 && ev.at < log[i-1].at || seen[ev.id] {
				return false
			}
			seen[ev.id] = true
		}
		return len(log) == total
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// spawner is a deterministic branching schedule: the event fired at
// (at, seq) schedules children whose count and delays derive from seq
// alone, a third of them on the firing cycle itself, so same-cycle
// events are scheduled from inside Fire while earlier-scheduled items
// are still due that cycle.
type spawner struct {
	budget int
	fired  []item // (at, seq) in firing order
}

// children calls sched for each child of the event (at, seq), while
// the budget lasts.
func (s *spawner) children(at, seq uint64, sched func(at uint64)) {
	s.fired = append(s.fired, item{at: at, seq: seq})
	r := lcg(seq)
	for n := r.delay() % 4; n > 0 && s.budget > 0; n-- {
		s.budget--
		switch d := r.delay(); d % 3 {
		case 0:
			sched(at)
		case 1:
			sched(at + d%4)
		default:
			sched(at + d)
		}
	}
}

// spawnEv is one engine event of a spawner schedule.
type spawnEv struct {
	s   *spawner
	e   *Engine
	seq uint64
}

func (v *spawnEv) Fire(now uint64) {
	v.s.children(now, v.seq, func(at uint64) {
		c := &spawnEv{s: v.s, e: v.e}
		v.e.AtObj(at, c)
		c.seq = v.e.seq
	})
}

// TestSameCycleScheduleMatchesReference runs random branching schedules
// through the engine and through the boxedHeap reference, and requires
// the same firing order on (at, seq).
func TestSameCycleScheduleMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		roots := make([]uint64, 40)
		r := lcg(seed)
		for i := range roots {
			roots[i] = r.delay() % 8
		}

		got := &spawner{budget: 4000}
		var e Engine
		for _, at := range roots {
			v := &spawnEv{s: got, e: &e}
			e.AtObj(at, v)
			v.seq = e.seq
		}
		e.Run()

		want := &spawner{budget: 4000}
		var h boxedHeap
		var seq uint64
		push := func(at uint64) {
			seq++
			heap.Push(&h, item{at: at, seq: seq})
		}
		for _, at := range roots {
			push(at)
		}
		for h.Len() > 0 {
			it := heap.Pop(&h).(item)
			want.children(it.at, it.seq, push)
		}

		if len(got.fired) != len(want.fired) {
			t.Fatalf("seed %d: engine fired %d events, reference %d", seed, len(got.fired), len(want.fired))
		}
		same := 0
		for i := range want.fired {
			g, w := got.fired[i], want.fired[i]
			if g.at != w.at || g.seq != w.seq {
				t.Fatalf("seed %d: firing %d is (%d,%d), reference (%d,%d)", seed, i, g.at, g.seq, w.at, w.seq)
			}
			if i > 0 && w.at == want.fired[i-1].at {
				same++
			}
		}
		if same == 0 {
			t.Fatalf("seed %d: no two events fired on one cycle", seed)
		}
	}
}
