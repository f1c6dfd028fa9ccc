// Package sim provides a deterministic discrete-event simulation engine.
//
// Time is measured in CPU cycles (uint64). Every event is a pre-allocated
// EventObj ordered by (time, scheduling sequence), so events scheduled
// for the same cycle fire in the order they were scheduled, which keeps
// multi-core runs reproducible. The earliest pending event waits in a
// one-item slot ahead of a binary heap that holds the rest.
package sim

import "fmt"

// EventObj is a schedulable event: a pre-allocated object whose Fire
// method runs at the scheduled time. A heap item stores only its
// interface header, so components that schedule millions of events
// (write-queue retires, per-core step chains) reuse one object per
// event kind and the event loop performs no allocations.
type EventObj interface {
	Fire(now uint64)
}

type item struct {
	at  uint64
	seq uint64
	obj EventObj
}

func (a item) less(b item) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventHeap is a typed binary min-heap ordered by (at, seq). Scheduling
// an event is the simulator's hottest path, so the heap works on items
// directly rather than through heap.Interface, which would box every
// pushed item into an interface{} (one allocation per scheduled event).
type eventHeap []item

// push and pop move a hole rather than swapping: each level of a sift
// copies one item, and the sifted item is written once, at the end.
func (h *eventHeap) push(it item) {
	*h = append(*h, it)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !it.less(s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = it
}

func (h *eventHeap) pop() item {
	s := *h
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s[n] = item{} // release the event object for GC
	s = s[:n]
	*h = s
	if n == 0 {
		return top
	}
	i := 0
	for {
		least := 2*i + 1
		if least >= n {
			break
		}
		if right := least + 1; right < n && s[right].less(s[least]) {
			least = right
		}
		if !s[least].less(last) {
			break
		}
		s[i] = s[least]
		i = least
	}
	s[i] = last
	return top
}

// Engine is a discrete-event simulator.
//
// The zero value is ready to use.
type Engine struct {
	now uint64
	seq uint64
	// next, when hasNext, is the earliest pending event: it orders
	// before every heap item. An event scheduled ahead of everything
	// pending (a core's next step, a same-cycle follow-up with nothing
	// else due) lands here and fires without a heap push or pop.
	next     item
	hasNext  bool
	heap     eventHeap
	observer func(now uint64)
}

// SetObserver installs a hook invoked after each fired event with the
// event's time (nil disables). The observability layer uses it to count
// events per window and to track the end of simulated time.
func (e *Engine) SetObserver(fn func(now uint64)) { e.observer = fn }

// Now returns the current simulated time in cycles.
func (e *Engine) Now() uint64 { return e.now }

// AtObj schedules ev.Fire to run at the absolute cycle at. ev is
// typically a pre-allocated per-component object, and the same object
// may be scheduled at several times at once (each pending item holds
// its own copy of the interface). Scheduling in the past panics: it always
// indicates a model bug.
func (e *Engine) AtObj(at uint64, ev EventObj) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", at, e.now))
	}
	e.seq++
	it := item{at: at, seq: e.seq, obj: ev}
	// A new item carries the highest seq, so it orders ahead of a
	// pending item only when strictly earlier.
	switch {
	case e.hasNext:
		if at < e.next.at {
			it, e.next = e.next, it
		}
		e.heap.push(it)
	case len(e.heap) == 0 || at < e.heap[0].at:
		e.next, e.hasNext = it, true
	default:
		e.heap.push(it)
	}
}

// Pending returns the number of scheduled events not yet fired.
func (e *Engine) Pending() int {
	if e.hasNext {
		return len(e.heap) + 1
	}
	return len(e.heap)
}

// Step fires the next event, advancing time to it. It reports whether an
// event was fired.
func (e *Engine) Step() bool {
	var it item
	switch {
	case e.hasNext:
		it = e.next
		e.next, e.hasNext = item{}, false // release the event object
	case len(e.heap) > 0:
		it = e.heap.pop()
	default:
		return false
	}
	e.now = it.at
	it.obj.Fire(e.now)
	if e.observer != nil {
		e.observer(it.at)
	}
	return true
}

// Run fires events until none remain.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil fires events with time <= deadline. Time never advances past
// the deadline; remaining events stay queued.
func (e *Engine) RunUntil(deadline uint64) {
	for {
		at, ok := e.NextEventAt()
		if !ok || at > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// NextEventAt returns the time of the earliest pending event. The boolean
// is false when the queue is empty.
func (e *Engine) NextEventAt() (uint64, bool) {
	switch {
	case e.hasNext:
		return e.next.at, true
	case len(e.heap) > 0:
		return e.heap[0].at, true
	}
	return 0, false
}
