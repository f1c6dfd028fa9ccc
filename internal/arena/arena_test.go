package arena

import "testing"

type node struct {
	id   int
	next *node
}

func TestPoolRecycles(t *testing.T) {
	var p Pool[node]
	a := p.Get()
	a.id = 7
	p.Put(a)
	b := p.Get()
	if b != a {
		t.Fatal("Get after Put returned a fresh object")
	}
	if b.id != 7 {
		t.Fatal("pool zeroed a recycled object; contract says it must not")
	}
	if p.Allocated() != 1 {
		t.Fatalf("Allocated = %d, want 1", p.Allocated())
	}
	if p.Live() != 1 {
		t.Fatalf("Live = %d, want 1", p.Live())
	}
}

func TestPoolLIFOOrder(t *testing.T) {
	var p Pool[node]
	x, y := p.Get(), p.Get()
	x.id, y.id = 1, 2
	p.Put(x)
	p.Put(y)
	if got := p.Get(); got != y {
		t.Fatal("pool is not LIFO: expected most recently Put object first")
	}
	if got := p.Get(); got != x {
		t.Fatal("second Get did not return the earlier Put object")
	}
}

func TestPoolNilPut(t *testing.T) {
	var p Pool[node]
	p.Put(nil)
	if p.Get() == nil {
		t.Fatal("Get returned nil after Put(nil)")
	}
}

func TestPoolSteadyStateAllocs(t *testing.T) {
	var p Pool[node]
	// Warm a working set, then cycle it.
	const ws = 32
	objs := make([]*node, ws)
	for i := range objs {
		objs[i] = p.Get()
	}
	for _, o := range objs {
		p.Put(o)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		x := p.Get()
		y := p.Get()
		p.Put(y)
		p.Put(x)
	})
	if allocs != 0 {
		t.Fatalf("warm pool Get/Put allocates %v objects per cycle, want 0", allocs)
	}
	if p.Allocated() != ws {
		t.Fatalf("steady-state cycling grew the pool: Allocated = %d, want %d", p.Allocated(), ws)
	}
}

func TestChunksAppendAtFlatten(t *testing.T) {
	var c Chunks[int]
	const n = 3*ChunkLen + 17 // spans several chunks plus a partial one
	for i := 0; i < n; i++ {
		c.Append(i * 3)
	}
	if c.Len() != n {
		t.Fatalf("Len = %d, want %d", c.Len(), n)
	}
	for _, i := range []int{0, 1, ChunkLen - 1, ChunkLen, 2*ChunkLen + 5, n - 1} {
		if got := *c.At(i); got != i*3 {
			t.Fatalf("At(%d) = %d, want %d", i, got, i*3)
		}
	}
	flat := c.Flatten()
	if len(flat) != n || cap(flat) != n {
		t.Fatalf("Flatten len/cap = %d/%d, want exactly %d", len(flat), cap(flat), n)
	}
	for i, v := range flat {
		if v != i*3 {
			t.Fatalf("Flatten[%d] = %d, want %d", i, v, i*3)
		}
	}
}

func TestChunksPointersStable(t *testing.T) {
	var c Chunks[int]
	c.Append(42)
	p := c.At(0)
	for i := 0; i < 5*ChunkLen; i++ {
		c.Append(i)
	}
	if *p != 42 || p != c.At(0) {
		t.Fatal("growth relocated an element; Chunks promises stable addresses")
	}
}

func TestChunksEach(t *testing.T) {
	var c Chunks[int]
	const n = ChunkLen + 3
	for i := 0; i < n; i++ {
		c.Append(i)
	}
	want := 0
	c.Each(func(v *int) {
		if *v != want {
			t.Fatalf("Each visited %d, want %d", *v, want)
		}
		want++
	})
	if want != n {
		t.Fatalf("Each visited %d elements, want %d", want, n)
	}
}

func TestChunksReset(t *testing.T) {
	var c Chunks[int]
	for i := 0; i < ChunkLen+5; i++ {
		c.Append(i)
	}
	c.Reset()
	if c.Len() != 0 {
		t.Fatalf("Len after Reset = %d, want 0", c.Len())
	}
	c.Append(9)
	if got := *c.At(0); got != 9 {
		t.Fatalf("At(0) after Reset+Append = %d, want 9", got)
	}
}

// TestChunksAppendAmortizedAllocs verifies the point of the structure:
// appends allocate only whole chunks, never copy-and-double.
func TestChunksAppendAmortizedAllocs(t *testing.T) {
	var c Chunks[[3]uint64]
	perChunk := testing.AllocsPerRun(4, func() {
		for i := 0; i < ChunkLen; i++ {
			c.Append([3]uint64{uint64(i), 0, 0})
		}
	})
	// One chunk allocation plus at most one growth of the chunk index
	// per ChunkLen appends.
	if perChunk > 2 {
		t.Fatalf("appending one chunk's worth costs %v allocations, want <= 2", perChunk)
	}
}

func BenchmarkChunksAppend(b *testing.B) {
	var c Chunks[[3]uint64]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Append([3]uint64{uint64(i), 1, 2})
	}
}

func BenchmarkSliceAppendBaseline(b *testing.B) {
	var s [][3]uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s = append(s, [3]uint64{uint64(i), 1, 2})
	}
	_ = s
}

func BenchmarkPoolCycle(b *testing.B) {
	var p Pool[node]
	p.Put(p.Get())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Put(p.Get())
	}
}
