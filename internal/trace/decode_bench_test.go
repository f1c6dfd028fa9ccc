package trace_test

import (
	"bytes"
	"testing"

	"supermem/internal/bench"
	"supermem/internal/config"
	"supermem/internal/trace"
)

// BenchmarkDecodeBinary decodes a recorded op stream: one core of the
// array workload at 1 KB transactions, as `supermem-trace record`
// writes it, at a small footprint.
func BenchmarkDecodeBinary(b *testing.B) {
	streams, err := bench.BuildSources(bench.Spec{
		Base:           config.Default(),
		Workload:       "array",
		Scheme:         config.SuperMem,
		TxBytes:        1024,
		Transactions:   20,
		Warmup:         1,
		Cores:          1,
		FootprintBytes: 1 << 20,
		Seed:           1,
	})
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, streams[0]); err != nil {
		b.Fatal(err)
	}
	enc := buf.Bytes()
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ops, err := trace.ReadBinary(bytes.NewReader(enc))
		if err != nil || len(ops) != len(streams[0]) {
			b.Fatalf("decoded %d ops (%v), recorded %d", len(ops), err, len(streams[0]))
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(streams[0])), "ns/trace-op")
}
