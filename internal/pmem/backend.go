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
	"maps"
	"math/bits"
	"slices"

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
// A large workload build appends millions of ops and touches hundreds
// of thousands of lines, so the op stream is recorded packed into
// chunks (trace.Builder: no copy-and-double growth) and memory is kept
// in 4 KiB pages: one map entry and one allocation per page rather
// than per line, with a mask of the lines Load or Store has touched.
type TracingBackend struct {
	pages map[uint64]page // page base -> page
	ops   trace.Builder
}

// page is one 4 KiB page of functional memory. Bit k of lines is set
// once Load or Store has touched line k, so Lines can report exactly
// the lines the workload touched. The mask lives in the map value
// beside the data pointer, so each page is one exactly 4096-byte
// allocation, which Go's allocator serves without padding.
type page struct {
	data  *[config.PageSize]byte
	lines uint64
}

// NewTracingBackend returns an empty tracing backend.
func NewTracingBackend() *TracingBackend {
	return &TracingBackend{pages: make(map[uint64]page)}
}

func lineBase(addr uint64) uint64 { return addr &^ (config.LineSize - 1) }

// line returns the bytes from addr to the end of its line, materializing
// the page and marking the line touched. The map is written only when
// a page or a line is touched for the first time.
func (b *TracingBackend) line(addr uint64) []byte {
	pb := addr &^ (config.PageSize - 1)
	p, ok := b.pages[pb]
	if !ok {
		p.data = new([config.PageSize]byte)
	}
	off := addr - pb
	if bit := uint64(1) << (off / config.LineSize); p.lines&bit == 0 {
		p.lines |= bit
		b.pages[pb] = p
	}
	return p.data[off : lineBase(off)+config.LineSize]
}

// Load implements Backend, emitting one Read per touched line.
func (b *TracingBackend) Load(addr uint64, n int) []byte {
	out := make([]byte, n)
	for i := 0; i < n; {
		a := addr + uint64(i)
		b.ops.Append(trace.Op{Kind: trace.Read, Addr: lineBase(a)})
		i += copy(out[i:], b.line(a))
	}
	return out
}

// Store implements Backend, emitting one Write per touched line.
func (b *TracingBackend) Store(addr uint64, data []byte) {
	for len(data) > 0 {
		b.ops.Append(trace.Op{Kind: trace.Write, Addr: lineBase(addr)})
		n := copy(b.line(addr), data)
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

// Stream returns the recorded op stream, packed and exactly sized (one
// copy out of the chunked recording).
func (b *TracingBackend) Stream() trace.Stream { return b.ops.Stream() }

// Ops returns the recorded op stream unpacked, each op in its
// canonical form (trace.Stream), for tests and inspection.
func (b *TracingBackend) Ops() []trace.Op { return b.Stream().Ops() }

// Lines returns the sorted base addresses of every memory line the
// backend has ever touched through Load or Store — the address space
// the crash fuzzer diffs a recovered machine against.
func (b *TracingBackend) Lines() []uint64 {
	var out []uint64
	for _, pb := range slices.Sorted(maps.Keys(b.pages)) {
		for m := b.pages[pb].lines; m != 0; m &= m - 1 {
			out = append(out, pb+uint64(bits.TrailingZeros64(m))*config.LineSize)
		}
	}
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
