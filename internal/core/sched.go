package core

// This file is the core's write-side scheduling plumbing: the
// write-group walker and the group buffer. Every in-flight op reuses
// its slot's walker and buffer for the whole run, which holds the
// dispatch path to zero allocations.

import (
	"supermem/internal/memctrl"
	"supermem/internal/obs"
)

// opJob walks one op's write groups through the controller
// sequentially: it is both the event that starts the enqueues after the
// op's latency (sim.EventObj) and the continuation invoked as each
// group is accepted (memctrl.Acceptor).
type opJob struct {
	s      *System
	c      *coreState
	done   *oooSlot
	at     uint64 // dispatch time of the current group
	i      int
	groups [][]memctrl.Entry
}

// Fire implements sim.EventObj.
func (j *opJob) Fire(now uint64) {
	j.at = now
	j.dispatch()
}

func (j *opJob) dispatch() {
	if j.i == len(j.groups) {
		j.done.opDone(j.at)
		return
	}
	if err := j.c.mc.EnqueueTo(j.at, j.groups[j.i], j); err != nil {
		// The persist paths only build 1- or 2-entry groups, so this is
		// an internal invariant break; stop the core and surface the
		// error from Run.
		j.s.runErr = err
		j.c.done = true
	}
}

// Accepted implements memctrl.Acceptor: the current group entered the
// ADR domain; charge the stall and move to the next group.
func (j *opJob) Accepted(now uint64) {
	j.c.m.WQStallCycles += now - j.at
	j.s.rec.CoreObserve(j.c.id, obs.HistWQStall, now-j.at)
	j.at = now
	j.i++
	j.dispatch()
}

// groupBuilder accumulates one op's write groups in two reusable
// buffers: a flat entry array and the group slices pointing into it.
// Entries are immutable once added and the buffers are reset only when
// their owner starts its next op — after every group of the previous op
// has been accepted (copied into the write queue) — so the controller
// never observes a recycled buffer. Each in-flight slot owns one.
type groupBuilder struct {
	entries []memctrl.Entry
	groups  [][]memctrl.Entry
}

func (g *groupBuilder) reset() {
	g.entries = g.entries[:0]
	g.groups = g.groups[:0]
}

// add1 appends a single-entry group (a bare data or counter write).
func (g *groupBuilder) add1(e memctrl.Entry) {
	n := len(g.entries)
	g.entries = append(g.entries, e)
	g.groups = append(g.groups, g.entries[n:n+1:n+1])
}

// add2 appends an atomic data+counter pair (the register of Figure 7).
func (g *groupBuilder) add2(a, b memctrl.Entry) {
	n := len(g.entries)
	g.entries = append(g.entries, a, b)
	g.groups = append(g.groups, g.entries[n:n+2:n+2])
}
