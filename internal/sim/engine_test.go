package sim

import (
	"container/heap"
	"math"
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

// refItem is one pending event of the reference queue.
type refItem struct{ at, seq uint64 }

// boxedHeap is the reference event queue: container/heap ordered by
// (time, scheduling order), the firing order the engine must keep.
type boxedHeap []refItem

func (h boxedHeap) Len() int { return len(h) }
func (h boxedHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h boxedHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *boxedHeap) Push(x interface{}) { *h = append(*h, x.(refItem)) }
func (h *boxedHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// spawner is a deterministic branching schedule: the event fired at
// (at, seq) schedules children whose count and delays derive from seq
// alone, a third of them on the firing cycle itself, so same-cycle
// events are scheduled from inside Fire while earlier-scheduled items
// are still due that cycle. Events are numbered in scheduling order, so
// the engine and the reference make the same calls for as long as they
// fire in the same order.
type spawner struct {
	budget int
	seq    uint64
	firing bool
	fired  []refItem // (at, seq) in firing order
	// push queues the event (at, seq) on the queue under test.
	push func(at, seq uint64)
}

// schedule numbers a new event and queues it.
func (s *spawner) schedule(at uint64) {
	s.seq++
	s.push(at, s.seq)
}

// fire records the event (at, seq) and schedules its children while
// the budget lasts.
func (s *spawner) fire(at, seq uint64) {
	s.fired = append(s.fired, refItem{at: at, seq: seq})
	s.firing = true
	r := lcg(seq)
	for n := r.delay() % 4; n > 0 && s.budget > 0; n-- {
		s.budget--
		switch d := r.delay(); d % 3 {
		case 0:
			s.schedule(at)
		case 1:
			s.schedule(at + d%4)
		default:
			s.schedule(at + d)
		}
	}
	s.firing = false
}

// spawnEv is one engine event of a spawner schedule.
type spawnEv struct {
	s   *spawner
	seq uint64
}

func (v *spawnEv) Fire(now uint64) { v.s.fire(now, v.seq) }

// engineSpawner returns a spawner that schedules onto e.
func engineSpawner(e *Engine, budget int) *spawner {
	s := &spawner{budget: budget}
	s.push = func(at, seq uint64) { e.AtObj(at, &spawnEv{s: s, seq: seq}) }
	return s
}

// refSpawner returns a spawner that schedules onto h.
func refSpawner(h *boxedHeap, budget int) *spawner {
	s := &spawner{budget: budget}
	s.push = func(at, seq uint64) { heap.Push(h, refItem{at: at, seq: seq}) }
	return s
}

// runRef fires the reference's events due at or before deadline.
func runRef(s *spawner, h *boxedHeap, deadline uint64) {
	for h.Len() > 0 && (*h)[0].at <= deadline {
		it := heap.Pop(h).(refItem)
		s.fire(it.at, it.seq)
	}
}

// sameFirings fails the test unless got fired exactly want's events in
// want's order.
func sameFirings(t *testing.T, seed uint64, got, want []refItem) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("seed %d: engine fired %d events, reference %d", seed, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("seed %d: firing %d is (%d,%d), reference (%d,%d)", seed, i, got[i].at, got[i].seq, want[i].at, want[i].seq)
		}
	}
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

		var e Engine
		got := engineSpawner(&e, 4000)
		for _, at := range roots {
			got.schedule(at)
		}
		e.Run()

		var h boxedHeap
		want := refSpawner(&h, 4000)
		for _, at := range roots {
			want.schedule(at)
		}
		runRef(want, &h, math.MaxUint64)

		sameFirings(t, seed, got.fired, want.fired)
		same := 0
		for i := 1; i < len(want.fired); i++ {
			if want.fired[i].at == want.fired[i-1].at {
				same++
			}
		}
		if same == 0 {
			t.Fatalf("seed %d: no two events fired on one cycle", seed)
		}
	}
}

// TestEngineMatchesReference drives the engine and the boxedHeap
// reference through the same randomized schedule, in rounds: a burst of
// events at mixDelay offsets from now, then RunUntil a deadline. It
// requires the same firing order on (at, seq), and that the schedule
// reached each case the slot and the sorted queue treat apart:
// same-cycle events scheduled from inside Fire, a slot item displaced
// while items at its own time are queued, deadlines that fall between
// pending events, and several hundred events pending at once.
func TestEngineMatchesReference(t *testing.T) {
	var sameCycle, displaced, cutShort, maxPending int
	for seed := uint64(1); seed <= 10; seed++ {
		var e Engine
		got := engineSpawner(&e, 4000)
		push := got.push
		got.push = func(at, seq uint64) {
			if got.firing && at == e.now {
				sameCycle++
			}
			if e.hasNext && at < e.next.at {
				for _, q := range e.queue[e.head:] {
					if q.at == e.next.at {
						displaced++
						break
					}
				}
			}
			push(at, seq)
			maxPending = max(maxPending, e.Pending())
		}
		var h boxedHeap
		want := refSpawner(&h, 4000)

		r := lcg(seed)
		var now uint64
		for round := 0; round < 40; round++ {
			for n := r.next() % 200; n > 0; n-- {
				at := now + r.mixDelay()
				got.schedule(at)
				want.schedule(at)
			}
			now += r.delay()
			e.RunUntil(now)
			runRef(want, &h, now)
			if e.Now() != now {
				t.Fatalf("seed %d: RunUntil(%d) left Now() = %d", seed, now, e.Now())
			}
			if e.Pending() != h.Len() {
				t.Fatalf("seed %d: %d events pending, reference %d", seed, e.Pending(), h.Len())
			}
			if e.Pending() > 0 {
				cutShort++
			}
		}
		e.Run()
		runRef(want, &h, math.MaxUint64)
		sameFirings(t, seed, got.fired, want.fired)
	}
	if sameCycle == 0 || displaced == 0 || cutShort == 0 || maxPending < 300 {
		t.Fatalf("schedule missed a case: %d same-cycle schedules from Fire, %d displaced slot items, %d deadlines between events, %d most pending",
			sameCycle, displaced, cutShort, maxPending)
	}
	t.Logf("%d same-cycle schedules from Fire, %d displaced slot items, %d deadlines between events, %d most pending",
		sameCycle, displaced, cutShort, maxPending)
}
