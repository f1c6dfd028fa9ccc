package core

import (
	"fmt"

	"supermem/internal/nvm"
	"supermem/internal/trace"
)

// InOrder executes one trace op at a time: an op's latency is charged
// in full before the next op dispatches, and an op with write groups
// holds the core until its last group is accepted into the ADR domain.
//
// Charge points: reads charge at completion (readPath's readyAt), flush
// counter-fetch + AES charge at dispatch (persistLatency), eviction
// persists charge nothing, write-queue stalls charge at acceptance.
type InOrder struct {
	s  *System
	c  *coreState
	ev stepEv
	// job and gb are this core's only op-walk state: in-order cores
	// start an op only after every group of the previous op was
	// accepted, so one job and one group buffer make the whole per-op
	// control flow allocation-free.
	job opJob
	gb  groupBuilder
}

func newInOrder(s *System, c *coreState) Model {
	m := &InOrder{s: s, c: c}
	m.ev = stepEv{m: m}
	m.job = opJob{s: s, c: c, done: m}
	c.gb = &m.gb
	c.mem = directReader{mc: c.mc}
	return m
}

// start implements Model.
func (m *InOrder) start() { m.s.eng.AtObj(0, &m.ev) }

// opDone implements Model: the op's last write group was accepted;
// dispatch the next op.
func (m *InOrder) opDone(now uint64) { m.s.eng.AtObj(now, &m.ev) }

// step executes the core's next operation.
func (m *InOrder) step(now uint64) {
	s, c := m.s, m.c
	op, ok := c.src.Next()
	if !ok {
		c.done = true
		return
	}
	switch op.Kind {
	case trace.Compute:
		s.eng.AtObj(now+op.Arg, &m.ev)
	case trace.Fence:
		// Flushes block until accepted into the ADR write queue, so
		// ordering is already enforced; the fence itself costs a cycle.
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
	case trace.Read:
		m.gb.reset()
		lat := s.readPath(c, now, nvm.LineAddr(op.Addr), false)
		m.finishOp(now, lat)
	case trace.Write:
		m.gb.reset()
		lat := s.writeHit(c, now, nvm.LineAddr(op.Addr))
		m.finishOp(now, lat)
	case trace.Flush:
		m.gb.reset()
		lat := s.flushPath(c, now, nvm.LineAddr(op.Addr))
		m.finishOp(now, lat)
	default:
		panic(fmt.Sprintf("core: unknown op kind %v", op.Kind))
	}
}

// finishOp charges the op's latency, then performs the write-queue
// enqueues accumulated in the core's group buffer sequentially (each
// may stall on a full queue), and finally schedules the next op.
func (m *InOrder) finishOp(now, lat uint64) {
	t := now + lat
	if len(m.gb.groups) == 0 {
		m.s.eng.AtObj(t, &m.ev)
		return
	}
	m.job.i = 0
	m.job.groups = m.gb.groups
	m.s.eng.AtObj(t, &m.job)
}
