package core

import (
	"fmt"

	"supermem/internal/config"
	"supermem/internal/nvm"
	"supermem/internal/trace"
)

// OoO is a core's timing model. It owns the core's dispatch policy —
// when the next trace op starts, how many memory ops may be in flight,
// and what happens on a miss — while the System owns everything the
// cores share: the cache hierarchy walk, the secure persist paths, the
// counter machinery, and the metrics.
//
// A core keeps up to width memory ops in flight, demand fills go
// through an MSHR file with same-line merge (mshr.go), and an optional
// stride prefetcher (prefetch.go) trains on its data misses. A core
// whose config.ModelFor name is "ooo" takes its width, MSHR entries and
// prefetch degree from the config. An "inorder" core, the blocking core
// of the paper's figures, is this model with a one-op window,
// config.DefaultMSHREntries entries and no prefetcher, whatever those
// knobs say: every op's latency is charged in full before the next op
// dispatches, and an op with write groups holds the core until its last
// group is accepted into the ADR domain.
//
// Dispatch walks the trace in program order; Read/Write/Flush ops each
// occupy a slot until their latency elapses and their write groups are
// accepted, while Compute only delays dispatch (in-flight ops keep
// draining underneath it). Fence, TxBegin, TxEnd, and Reset serialize:
// they wait until the in-flight window is empty, so a transaction's
// measured latency includes draining its own memory ops, and flushes
// between fences are unordered with respect to each other (clwb
// semantics — only the fence orders them).
//
// The contract:
//   - start schedules the core's first dispatch at cycle 0; after that
//     the model keeps itself scheduled until the trace source drains,
//     then sets its coreState.done.
//   - a trace.Reset op goes to System.noteReset, which zeroes the
//     core's metrics block; the model keeps no warmup state of its own.
//
// Latency charge points are part of the contract: reads charge the
// core at completion (readPath's readyAt), flush-side counter fetch and
// AES charge at dispatch (persistLatency), eviction-side persists are
// never core-visible, write-queue stalls charge at group acceptance
// (opJob.Accepted), and MSHR full-file waits charge MSHRStallCycles
// (they also lengthen the op's read stall). The in-order goldens in
// golden_test.go pin this table.
type OoO struct {
	s     *System
	c     *coreState
	width int

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
}

// oooSlot is one in-flight op: its own group buffer and write-group
// walker (so concurrent ops never share scratch); the slot itself is
// the completion event of an op with no write groups. All slots are
// pre-allocated at construction; the steady-state dispatch path
// allocates nothing.
type oooSlot struct {
	m    *OoO
	job  opJob
	gb   groupBuilder
	busy bool
}

// Fire implements sim.EventObj: the op's latency elapsed with nothing
// to enqueue.
func (sl *oooSlot) Fire(now uint64) {
	sl.m.complete(sl)
	sl.m.dispatch(now)
}

// opDone is the opJob continuation: the op's last write group was
// accepted into the ADR domain at cycle now.
func (sl *oooSlot) opDone(now uint64) {
	sl.m.complete(sl)
	sl.m.wakeAt(now)
}

// newOoO builds core c's model and wires the core's gb, mem and pf
// hooks to it.
func newOoO(s *System, c *coreState) *OoO {
	width, mshrs, degree := 1, config.DefaultMSHREntries, 0
	if s.cfg.ModelFor(c.id) == config.CoreOoO {
		width, mshrs, degree = s.cfg.EffectiveOoOWidth(), s.cfg.EffectiveMSHREntries(), s.cfg.PrefetchDegree
	}
	m := &OoO{s: s, c: c, width: width}
	c.mem = &mshrFile{s: s, c: c, entries: make([]mshrEntry, mshrs)}
	m.slots = make([]*oooSlot, width)
	for i := range m.slots {
		sl := &oooSlot{m: m}
		sl.job = opJob{s: s, c: c, done: sl}
		m.slots[i] = sl
	}
	c.gb = &m.slots[0].gb
	if degree > 0 {
		c.pf = &prefetcher{s: s, c: c, degree: degree}
	}
	return m
}

// start schedules the core's first dispatch.
func (m *OoO) start() { m.wakeAt(0) }

// Fire implements sim.EventObj for the dispatch loop.
func (m *OoO) Fire(now uint64) { m.dispatch(now) }

func (m *OoO) wakeAt(t uint64) { m.s.eng.AtObj(t, m) }

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
// reschedules dispatch as its own event instead of continuing the loop:
// other cores and the write queue observe that (at, seq) order, and the
// in-order goldens pin it.
func (m *OoO) execSerial(op trace.Op, now uint64) {
	s, c := m.s, m.c
	switch op.Kind {
	case trace.Fence:
		// Flushes block until accepted into the ADR write queue, so
		// ordering is already enforced; the fence itself costs a cycle.
		m.wakeAt(now + 1)
	case trace.TxBegin:
		c.inTx = true
		c.txStart = now
		m.wakeAt(now)
	case trace.TxEnd:
		s.noteTxEnd(c, now)
		m.wakeAt(now)
	case trace.Reset:
		s.noteReset(c)
		m.wakeAt(now)
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
		s.eng.AtObj(t, sl)
		return
	}
	sl.job.i = 0
	sl.job.groups = sl.gb.groups
	s.eng.AtObj(t, &sl.job)
}
