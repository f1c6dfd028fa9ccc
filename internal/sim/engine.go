// Package sim provides a deterministic discrete-event simulation engine.
//
// Time is measured in CPU cycles (uint64). Every event is a pre-allocated
// EventObj ordered by (time, scheduling order), so events scheduled for
// the same cycle fire in the order they were scheduled, which keeps
// multi-core runs reproducible. The earliest pending event waits in a
// one-item slot ahead of a time-sorted array that holds the rest.
package sim

import "fmt"

// EventObj is a schedulable event: a pre-allocated object whose Fire
// method runs at the scheduled time. A queued item stores only its
// interface header, so components that schedule millions of events
// (write-queue retires, per-core step chains) reuse one object per
// event kind and the event loop performs no allocations.
type EventObj interface {
	Fire(now uint64)
}

type item struct {
	at  uint64
	obj EventObj
}

// Engine is a discrete-event simulator.
//
// The zero value is ready to use.
type Engine struct {
	now uint64
	// next, when hasNext, is the earliest pending event: it orders
	// before every queued item. An event scheduled ahead of everything
	// pending (a core's next step, a same-cycle follow-up with nothing
	// else due) lands here and fires without touching the queue.
	next    item
	hasNext bool
	// queue[head:] holds the other pending events sorted by time, and
	// in scheduling order among equal times. Pending sets are small
	// (about 2 to 13 events on average in the paper's grids), so an
	// insertion scans from the back, and a pop advances head.
	queue    []item
	head     int
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
	it := item{at: at, obj: ev}
	// A new item is the latest scheduled, so it orders ahead of a
	// pending item only when strictly earlier.
	switch {
	case e.hasNext && at < e.next.at:
		// The displaced item ordered before every queued item.
		it, e.next = e.next, it
		e.pushFront(it)
	case e.hasNext || e.head < len(e.queue) && at >= e.queue[e.head].at:
		e.insert(it)
	default:
		e.next, e.hasNext = it, true
	}
}

// pushFront queues it ahead of every queued item.
func (e *Engine) pushFront(it item) {
	if e.head == 0 {
		e.queue = append(e.queue, item{})
		copy(e.queue[1:], e.queue)
	} else {
		e.head--
	}
	e.queue[e.head] = it
}

// insert queues it after every queued item due at or before it.
func (e *Engine) insert(it item) {
	if e.head > 0 && it.at < e.queue[e.head].at {
		e.pushFront(it) // into the place the last pop freed
		return
	}
	if len(e.queue) == cap(e.queue) && e.head > len(e.queue)/2 {
		// At least half the array has fired: reuse it.
		e.queue = e.queue[:copy(e.queue, e.queue[e.head:])]
		e.head = 0
	}
	e.queue = append(e.queue, it)
	q := e.queue
	i := len(q) - 1
	for ; i > e.head && q[i-1].at > it.at; i-- {
		q[i] = q[i-1]
	}
	q[i] = it
}

// Pending returns the number of scheduled events not yet fired.
func (e *Engine) Pending() int {
	n := len(e.queue) - e.head
	if e.hasNext {
		n++
	}
	return n
}

// Step fires the next event, advancing time to it. It reports whether an
// event was fired.
func (e *Engine) Step() bool {
	var it item
	switch {
	case e.hasNext:
		it = e.next
		e.next, e.hasNext = item{}, false // release the event object
	case e.head < len(e.queue):
		it = e.queue[e.head]
		if e.head++; e.head == len(e.queue) {
			e.queue, e.head = e.queue[:0], 0
		}
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
	case e.head < len(e.queue):
		return e.queue[e.head].at, true
	}
	return 0, false
}
