// Package pmem provides the persistence programming model the paper's
// workloads use: a Backend abstraction over persistent memory (load,
// store, clwb, sfence), durable redo-log transactions with the paper's
// prepare/mutate/commit stages (Table 1), and post-crash log recovery.
//
// Two backends exist: machine.Machine (byte-accurate, really encrypted,
// crashes for real) satisfies Backend directly, and TracingBackend runs
// the same workload code while recording the op stream for the timing
// simulator — one workload implementation feeds both the crash
// experiments and the performance figures.
package pmem

import (
	"sort"

	"supermem/internal/arena"
	"supermem/internal/config"
	"supermem/internal/trace"
)

// Backend is the persistent-memory hardware interface.
type Backend interface {
	// Load reads n bytes at addr.
	Load(addr uint64, n int) []byte
	// Store writes bytes at addr (volatile until flushed).
	Store(addr uint64, data []byte)
	// CLWB writes the line containing addr back to NVM if dirty.
	CLWB(addr uint64)
	// SFence orders preceding flushes before later operations.
	SFence()
}

// Marker is optionally implemented by backends that want transaction
// boundaries and compute delays recorded (the tracing backend does; the
// functional machine does not care).
type Marker interface {
	Mark(op trace.Op)
}

// TracingBackend is a functional, unencrypted memory that records every
// operation as a trace op. Loads return previously stored bytes (zeroes
// when untouched), so data-structure code runs for real while the op
// stream drives the timing simulator.
//
// A large workload build appends millions of ops and materializes
// hundreds of thousands of lines, so the op stream lives in a chunked
// arena buffer (no copy-and-double growth) and lines are carved from a
// block allocator (one GC object per ~1000 lines instead of one each).
type TracingBackend struct {
	mem   map[uint64][]byte // line base -> 64-byte slice
	ops   arena.Chunks[trace.Op]
	lines *arena.Bytes
}

// NewTracingBackend returns an empty tracing backend.
func NewTracingBackend() *TracingBackend {
	return &TracingBackend{mem: make(map[uint64][]byte), lines: arena.NewBytes(0)}
}

func lineBase(addr uint64) uint64 { return addr &^ (config.LineSize - 1) }

func (b *TracingBackend) lineFor(base uint64) []byte {
	l, ok := b.mem[base]
	if !ok {
		l = b.lines.Alloc(config.LineSize)
		b.mem[base] = l
	}
	return l
}

// Load implements Backend, emitting one Read per touched line.
func (b *TracingBackend) Load(addr uint64, n int) []byte {
	out := make([]byte, n)
	i := 0
	for i < n {
		base := lineBase(addr + uint64(i))
		b.ops.Append(trace.Op{Kind: trace.Read, Addr: base})
		off := int(addr + uint64(i) - base)
		i += copy(out[i:], b.lineFor(base)[off:])
	}
	return out
}

// Store implements Backend, emitting one Write per touched line.
func (b *TracingBackend) Store(addr uint64, data []byte) {
	for len(data) > 0 {
		base := lineBase(addr)
		b.ops.Append(trace.Op{Kind: trace.Write, Addr: base})
		off := int(addr - base)
		n := copy(b.lineFor(base)[off:], data)
		addr += uint64(n)
		data = data[n:]
	}
}

// CLWB implements Backend.
func (b *TracingBackend) CLWB(addr uint64) {
	b.ops.Append(trace.Op{Kind: trace.Flush, Addr: lineBase(addr)})
}

// SFence implements Backend.
func (b *TracingBackend) SFence() {
	b.ops.Append(trace.Op{Kind: trace.Fence})
}

// Mark implements Marker.
func (b *TracingBackend) Mark(op trace.Op) { b.ops.Append(op) }

// Ops returns the recorded op stream as one contiguous slice (a single
// exact-size copy out of the chunked buffer).
func (b *TracingBackend) Ops() []trace.Op { return b.ops.Flatten() }

// Lines returns the sorted base addresses of every memory line the
// backend has ever materialized — the address space the crash fuzzer
// diffs a recovered machine against.
func (b *TracingBackend) Lines() []uint64 {
	out := make([]uint64, 0, len(b.mem))
	for base := range b.mem {
		out = append(out, base)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Mark helpers shared by the transaction layer.
func mark(b Backend, op trace.Op) {
	if m, ok := b.(Marker); ok {
		m.Mark(op)
	}
}

// FlushRange issues CLWB for every line overlapping [addr, addr+n).
func FlushRange(b Backend, addr uint64, n int) {
	if n <= 0 {
		return
	}
	first := lineBase(addr)
	last := lineBase(addr + uint64(n) - 1)
	for l := first; l <= last; l += config.LineSize {
		b.CLWB(l)
	}
}
