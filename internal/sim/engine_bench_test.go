package sim

import (
	"fmt"
	"testing"
)

// lcg is the tests' and benchmarks' pseudo-random source.
type lcg uint64

func (r *lcg) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r) >> 33
}

// delay returns the next delay, uniform-ish in [1, 600].
func (r *lcg) delay() uint64 { return r.next()%600 + 1 }

// mixDelay returns the next delay from the mix the paper's grids
// schedule: 18% on the current cycle, 40% within 4 cycles, and the rest
// spread up to 1024 cycles.
func (r *lcg) mixDelay() uint64 {
	x := r.next()
	switch p := x % 100; {
	case p < 18:
		return 0
	case p < 40:
		return x/100%4 + 1
	default:
		return x/100%1020 + 5
	}
}

// benchEv is one self-rescheduling event object standing in for every
// pending event, until n events have fired in total.
type benchEv struct {
	e        *Engine
	rng      lcg
	fired, n int
}

func (c *benchEv) Fire(now uint64) {
	c.fired++
	if c.fired < c.n {
		c.e.AtObj(now+c.rng.mixDelay(), c)
	}
}

// BenchmarkEngine holds a fixed number of events pending, each fired
// event scheduling one successor at a mixDelay, and reports the cost per
// fired event. The sizes span the mean pending counts of the benchmark
// workloads (about 2 on paper-1c, 9 on paper-8p, 13 on kv-zipf) and the
// most a CI-scale run ever holds (31).
func BenchmarkEngine(b *testing.B) {
	for _, pending := range []int{2, 9, 13, 31} {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			var e Engine
			c := &benchEv{e: &e, rng: 1, n: b.N}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < pending && i < b.N; i++ {
				e.AtObj(c.rng.mixDelay(), c)
			}
			e.Run()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
		})
	}
}
