package pmem

import (
	"bytes"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"supermem/internal/config"
	"supermem/internal/trace"
)

// refTracing is the tracing memory as one map entry per 64-byte line,
// the design TracingBackend's pages replaced. It is the reference the
// paged memory must match op for op, byte for byte and line for line.
type refTracing struct {
	mem map[uint64][]byte
	ops []trace.Op
}

func (r *refTracing) lineFor(base uint64) []byte {
	l, ok := r.mem[base]
	if !ok {
		l = make([]byte, config.LineSize)
		r.mem[base] = l
	}
	return l
}

func (r *refTracing) Load(addr uint64, n int) []byte {
	out := make([]byte, n)
	for i := 0; i < n; {
		base := lineBase(addr + uint64(i))
		r.ops = append(r.ops, trace.Op{Kind: trace.Read, Addr: base})
		off := int(addr + uint64(i) - base)
		i += copy(out[i:], r.lineFor(base)[off:])
	}
	return out
}

func (r *refTracing) Store(addr uint64, data []byte) {
	for len(data) > 0 {
		base := lineBase(addr)
		r.ops = append(r.ops, trace.Op{Kind: trace.Write, Addr: base})
		n := copy(r.lineFor(base)[int(addr-base):], data)
		addr += uint64(n)
		data = data[n:]
	}
}

func (r *refTracing) CLWB(addr uint64) {
	r.ops = append(r.ops, trace.Op{Kind: trace.Flush, Addr: lineBase(addr)})
}

func (r *refTracing) SFence() { r.ops = append(r.ops, trace.Op{Kind: trace.Fence}) }

func (r *refTracing) Mark(op trace.Op) { r.ops = append(r.ops, op) }

func (r *refTracing) Lines() []uint64 {
	out := make([]uint64, 0, len(r.mem))
	for base := range r.mem {
		out = append(out, base)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestTracingBackendMatchesLineMap drives TracingBackend, the
// non-recording Memory and the map-of-lines reference with the same
// random Load, Store, CLWB, SFence and Mark sequences (Memory takes no
// marks). Accesses run up to 300 bytes from any offset, so they cross
// line and page boundaries, and some pages are only ever loaded. Every
// Load must return the same bytes from all three, the tracing backend
// must end with the reference's op stream, and all three with the same
// touched-line set.
func TestTracingBackendMatchesLineMap(t *testing.T) {
	// Four adjacent pages, one isolated page that is only ever loaded,
	// and one far page that straddles a 32-bit boundary.
	regions := []struct {
		base, size uint64
		loadOnly   bool
	}{
		{0x40000, 4 * config.PageSize, false},
		{0x80000, config.PageSize, true},
		{1<<32 - config.PageSize, 2 * config.PageSize, false},
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		got := NewTracingBackend()
		mem := NewMemory()
		ref := &refTracing{mem: map[uint64][]byte{}}
		for step := 0; step < 2000; step++ {
			r := regions[rng.Intn(len(regions))]
			addr := r.base + uint64(rng.Int63n(int64(r.size)))
			n := rng.Intn(301)
			switch op := rng.Intn(10); {
			case op < 4 || r.loadOnly && op < 8:
				g, m, w := got.Load(addr, n), mem.Load(addr, n), ref.Load(addr, n)
				if !bytes.Equal(g, w) || !bytes.Equal(m, w) {
					t.Fatalf("seed %d step %d: Load(%#x, %d) = %x (tracing), %x (memory), want %x", seed, step, addr, n, g, m, w)
				}
			case op < 8:
				data := make([]byte, n)
				rng.Read(data)
				got.Store(addr, data)
				mem.Store(addr, data)
				ref.Store(addr, data)
			case op == 8:
				got.CLWB(addr)
				mem.CLWB(addr)
				ref.CLWB(addr)
			default:
				if rng.Intn(2) == 0 {
					got.SFence()
					mem.SFence()
					ref.SFence()
				} else {
					m := trace.Op{Kind: trace.Compute, Arg: uint64(n)}
					got.Mark(m)
					ref.Mark(m)
				}
			}
		}
		if !slices.Equal(got.Ops(), ref.ops) {
			t.Fatalf("seed %d: op streams differ (%d vs %d ops)", seed, len(got.Ops()), len(ref.ops))
		}
		w := ref.Lines()
		if g := got.Lines(); !slices.Equal(g, w) {
			t.Fatalf("seed %d: Lines = %d lines, want %d:\n got %x\nwant %x", seed, len(g), len(w), g, w)
		}
		if m := mem.Lines(); !slices.Equal(m, w) {
			t.Fatalf("seed %d: Memory.Lines = %d lines, want %d:\n got %x\nwant %x", seed, len(m), len(w), m, w)
		}
	}
}
