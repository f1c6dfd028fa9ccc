// Package arena provides allocation-free building blocks for the
// simulator's hot paths: typed freelists for fixed-size objects that
// cycle rapidly (write-queue entries, enqueue jobs) and chunked
// append-only buffers for streams that only grow (trace ops,
// observability events).
//
// Both exist to hold the event loop's 0 allocs/op line under large
// runs: a freelist recycles objects instead of handing them to the
// garbage collector, and a chunked buffer grows by whole blocks so an
// append never copies what was already written (append's doubling
// re-copies the entire backing array, which profiles as the dominant
// memmove in million-op trace builds).
//
// Nothing in this package is safe for concurrent use. Each simulator
// component owns its pools and buffers, matching the repo's
// determinism contract: parallel grid runs parallelize across isolated
// cells, never inside shared allocators.
package arena

// Pool is a LIFO freelist of *T.
type Pool[T any] struct {
	free []*T
	news int // total fresh allocations, for tests/diagnostics
}

// Get returns a recycled *T, or a fresh zero-valued one when the pool
// is empty. Recycled objects are returned exactly as Put received
// them; callers re-initialize every field they read.
func (p *Pool[T]) Get() *T {
	if n := len(p.free); n > 0 {
		x := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return x
	}
	p.news++
	return new(T)
}

// Put recycles x for a later Get. The pool does not zero it: hot
// structs are fully re-initialized on reuse, and pooled objects are
// bounded by the component's capacity (a write queue's entries, one
// in-flight job per core), so transiently retained references are
// bounded too. Callers holding large or sensitive references should
// clear them before Put.
func (p *Pool[T]) Put(x *T) {
	if x == nil {
		return
	}
	p.free = append(p.free, x)
}

// Live returns the number of objects created by Get that have not been
// Put back — the pool's leak counter for tests.
func (p *Pool[T]) Live() int { return p.news - len(p.free) }

// Allocated returns the total number of fresh allocations the pool has
// performed (tests assert this stops growing once the working set is
// warm).
func (p *Pool[T]) Allocated() int { return p.news }

// chunkShift fixes the chunk size of Chunks at 1<<chunkShift elements:
// large enough that chunk-boundary work is negligible, small enough
// that an almost-empty buffer wastes little.
const chunkShift = 13

// ChunkLen is the number of elements per chunk in a Chunks buffer.
const ChunkLen = 1 << chunkShift

// Chunks is an append-only buffer of T stored in fixed-size blocks.
// Unlike a slice it never relocates written elements, so appending n
// elements writes each exactly once, and pointers into the buffer
// remain valid across growth.
type Chunks[T any] struct {
	full [][]T // completed chunks, each exactly ChunkLen long
	cur  []T   // chunk being filled (len < ChunkLen once allocated)
}

// Append adds v to the buffer.
func (c *Chunks[T]) Append(v T) {
	if len(c.cur) == cap(c.cur) {
		if c.cur != nil {
			c.full = append(c.full, c.cur)
		}
		c.cur = make([]T, 0, ChunkLen)
	}
	c.cur = append(c.cur, v)
}

// Len returns the number of appended elements.
func (c *Chunks[T]) Len() int {
	return len(c.full)*ChunkLen + len(c.cur)
}

// At returns a pointer to element i in append order.
func (c *Chunks[T]) At(i int) *T {
	if chunk := i >> chunkShift; chunk < len(c.full) {
		return &c.full[chunk][i&(ChunkLen-1)]
	}
	return &c.cur[i-len(c.full)*ChunkLen]
}

// Each calls fn on every element in append order.
func (c *Chunks[T]) Each(fn func(*T)) {
	for _, chunk := range c.full {
		for i := range chunk {
			fn(&chunk[i])
		}
	}
	for i := range c.cur {
		fn(&c.cur[i])
	}
}

// Flatten copies the buffer into one exactly-sized contiguous slice —
// the single copy that replaces the O(n) re-copies of growing a plain
// slice element by element.
func (c *Chunks[T]) Flatten() []T {
	out := make([]T, 0, c.Len())
	for _, chunk := range c.full {
		out = append(out, chunk...)
	}
	return append(out, c.cur...)
}

// Reset empties the buffer, keeping only the current chunk's storage
// for reuse.
func (c *Chunks[T]) Reset() {
	c.full = nil
	c.cur = c.cur[:0]
}
