package core

import (
	"fmt"

	"supermem/internal/nvm"
	"supermem/internal/trace"
)

// OoO is the out-of-order core: up to width memory ops in flight, an
// MSHR file with same-line merge (mshr.go), and an optional stride
// prefetcher (prefetch.go). Dispatch walks the trace in program order;
// Read/Write/Flush ops each occupy a slot until their latency elapses
// and their write groups are accepted, while Compute only delays
// dispatch (in-flight ops keep draining underneath it). Fence, TxBegin,
// TxEnd, and Reset serialize: they wait until the in-flight window is
// empty, so a transaction's measured latency includes draining its own
// memory ops, and flushes between fences are unordered with respect to
// each other (clwb semantics — only the fence orders them).
//
// Charge points match the in-order model: reads charge at completion,
// flush counter-fetch + AES charge at dispatch, eviction persists are
// free to the core, write-queue stalls charge at group acceptance, and
// MSHR full-file waits charge MSHRStallCycles (they also lengthen the
// op's read stall). At width 1 with prefetching off, every dispatch
// action is scheduled as its own event exactly like the in-order model,
// so the two models produce identical metrics — the equivalence
// property test in ooo_test.go pins that.
type OoO struct {
	s     *System
	c     *coreState
	width int

	ev    stepEv // dispatch-loop event
	slots []*oooSlot

	inflight int
	// stalledUntil blocks dispatch during a Compute op's delay;
	// completions that wake the loop earlier see now < stalledUntil and
	// return.
	stalledUntil uint64
	// pendingOp holds a serializing op popped while ops were in flight;
	// it executes when the window drains.
	pendingOp   trace.Op
	havePending bool
	srcDone     bool

	mshr mshrFile
	pf   *prefetcher
}

// oooSlot is one in-flight op: its own group buffer and write-group
// walker (so concurrent ops never share scratch), plus a completion
// event for ops with no write groups. All slots are pre-allocated at
// construction; the steady-state dispatch path allocates nothing.
type oooSlot struct {
	m    *OoO
	ev   stepEv
	job  opJob
	gb   groupBuilder
	busy bool
}

// step implements stepper for the slot's completion event: the op's
// latency elapsed with nothing to enqueue.
func (sl *oooSlot) step(now uint64) {
	sl.m.complete(sl)
	sl.m.dispatch(now)
}

// opDone implements opDoner: the op's last write group was accepted.
func (sl *oooSlot) opDone(now uint64) {
	sl.m.complete(sl)
	sl.m.wakeAt(now)
}

func newOoO(s *System, c *coreState) Model {
	m := &OoO{s: s, c: c, width: s.cfg.EffectiveOoOWidth()}
	m.ev = stepEv{m: m}
	m.mshr = mshrFile{s: s, c: c, entries: make([]mshrEntry, s.cfg.EffectiveMSHREntries())}
	c.mem = &m.mshr
	m.slots = make([]*oooSlot, m.width)
	for i := range m.slots {
		sl := &oooSlot{m: m}
		sl.ev = stepEv{m: sl}
		sl.job = opJob{s: s, c: c, done: sl}
		m.slots[i] = sl
	}
	c.gb = &m.slots[0].gb
	if s.cfg.PrefetchDegree > 0 {
		m.pf = &prefetcher{s: s, c: c, degree: s.cfg.PrefetchDegree}
		c.pf = m.pf
	}
	return m
}

// start implements Model.
func (m *OoO) start() { m.s.eng.AtObj(0, &m.ev) }

// opDone implements Model for completeness of the interface; the OoO
// model routes op completions through the slots' own opDone, so the
// model-level hook firing means a slot wiring bug.
func (m *OoO) opDone(uint64) {
	panic("core: OoO.opDone called directly; op completions go through their slot")
}

// step implements stepper for the dispatch-loop event.
func (m *OoO) step(now uint64) { m.dispatch(now) }

func (m *OoO) wakeAt(t uint64) { m.s.eng.AtObj(t, &m.ev) }

func (m *OoO) complete(sl *oooSlot) {
	sl.busy = false
	m.inflight--
}

// dispatch issues trace ops until the in-flight window fills, a
// serializing op needs the window drained, or a Compute delay starts.
// Every path that pauses the loop schedules (or is woken by) an event
// that resumes it, so the core cannot deadlock.
func (m *OoO) dispatch(now uint64) {
	if m.c.done || now < m.stalledUntil {
		return
	}
	c := m.c
	for {
		if m.havePending {
			if m.inflight > 0 {
				return
			}
			op := m.pendingOp
			m.havePending = false
			m.execSerial(op, now)
			return
		}
		if m.srcDone {
			if m.inflight == 0 {
				c.done = true
			}
			return
		}
		if m.inflight == m.width {
			return
		}
		op, ok := c.src.Next()
		if !ok {
			m.srcDone = true
			continue
		}
		switch op.Kind {
		case trace.Compute:
			// Dispatch stalls for the compute delay; in-flight memory
			// ops keep draining underneath it.
			m.stalledUntil = now + op.Arg
			m.wakeAt(m.stalledUntil)
			return
		case trace.Fence, trace.TxBegin, trace.TxEnd, trace.Reset:
			if m.inflight > 0 {
				m.pendingOp = op
				m.havePending = true
				return
			}
			m.execSerial(op, now)
			return
		case trace.Read, trace.Write, trace.Flush:
			m.issue(op, now)
		default:
			panic(fmt.Sprintf("core: unknown op kind %v", op.Kind))
		}
	}
}

// execSerial executes a serializing op with the window empty. Each one
// reschedules dispatch as its own event — the same schedule shape as
// the in-order model, which keeps width-1 OoO exactly equivalent to
// in-order (events fire in identical (at, seq) order, so shared
// write-queue and snapshot state is observed identically).
func (m *OoO) execSerial(op trace.Op, now uint64) {
	s, c := m.s, m.c
	switch op.Kind {
	case trace.Fence:
		s.eng.AtObj(now+1, &m.ev)
	case trace.TxBegin:
		c.inTx = true
		c.txStart = now
		s.eng.AtObj(now, &m.ev)
	case trace.TxEnd:
		s.noteTxEnd(c, now)
		s.eng.AtObj(now, &m.ev)
	case trace.Reset:
		s.noteReset(c)
		s.eng.AtObj(now, &m.ev)
	}
}

// issue dispatches one memory op into a free slot. The op's latency is
// computed synchronously (bank busy windows and the MSHR file are
// arithmetic over simulated time), so the slot only needs a completion
// event at now+lat — or the group walk, whose acceptance completes it.
func (m *OoO) issue(op trace.Op, now uint64) {
	s, c := m.s, m.c
	var sl *oooSlot
	for _, cand := range m.slots {
		if !cand.busy {
			sl = cand
			break
		}
	}
	sl.busy = true
	m.inflight++
	sl.gb.reset()
	c.gb = &sl.gb
	var lat uint64
	switch op.Kind {
	case trace.Read:
		lat = s.readPath(c, now, nvm.LineAddr(op.Addr), false)
	case trace.Write:
		lat = s.writeHit(c, now, nvm.LineAddr(op.Addr))
	case trace.Flush:
		lat = s.flushPath(c, now, nvm.LineAddr(op.Addr))
	}
	t := now + lat
	if len(sl.gb.groups) == 0 {
		s.eng.AtObj(t, &sl.ev)
		return
	}
	sl.job.i = 0
	sl.job.groups = sl.gb.groups
	s.eng.AtObj(t, &sl.job)
}

// Interface conformance documented here so a registry edit cannot lose
// it silently.
var (
	_ Model = (*InOrder)(nil)
	_ Model = (*OoO)(nil)
)
