package obs

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
)

// TestHistogramQuantileOracle checks p50/p95/p99 against a sorted-slice
// oracle across several distributions: the histogram must never
// understate a quantile and must stay within its 2^-subBits relative
// error bound.
func TestHistogramQuantileOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dists := map[string]func() uint64{
		"uniform":   func() uint64 { return uint64(rng.Intn(1_000_000)) },
		"small":     func() uint64 { return uint64(rng.Intn(24)) },
		"heavytail": func() uint64 { return uint64(rng.ExpFloat64() * 5000) },
		"bimodal": func() uint64 {
			if rng.Intn(10) == 0 {
				return 100_000 + uint64(rng.Intn(1000))
			}
			return uint64(rng.Intn(100))
		},
	}
	for name, gen := range dists {
		var h Histogram
		vals := make([]uint64, 0, 20_000)
		for i := 0; i < 20_000; i++ {
			v := gen()
			h.Observe(v)
			vals = append(vals, v)
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		for _, q := range []float64{0.5, 0.95, 0.99, 1.0} {
			rank := int(q*float64(len(vals)) + 0.5)
			if rank < 1 {
				rank = 1
			}
			if rank > len(vals) {
				rank = len(vals)
			}
			oracle := vals[rank-1]
			got := h.Quantile(q)
			if got < oracle {
				t.Errorf("%s q=%v: got %d < oracle %d (quantile understated)", name, q, got, oracle)
			}
			bound := oracle + oracle/subCount + 1
			if got > bound {
				t.Errorf("%s q=%v: got %d > bound %d (oracle %d)", name, q, got, bound, oracle)
			}
		}
		s := h.Snapshot()
		if s.Count != 20_000 || s.Min != vals[0] || s.Max != vals[len(vals)-1] {
			t.Errorf("%s: snapshot count/min/max = %d/%d/%d, want %d/%d/%d",
				name, s.Count, s.Min, s.Max, 20_000, vals[0], vals[len(vals)-1])
		}
	}
}

func TestHistogramEmptyAndReset(t *testing.T) {
	var h Histogram
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %d, want 0", got)
	}
	h.Observe(42)
	h.Observe(7)
	h.Reset()
	if h.Count() != 0 || h.Quantile(0.99) != 0 {
		t.Fatalf("after Reset: count=%d q99=%d, want 0/0", h.Count(), h.Quantile(0.99))
	}
	h.Observe(9)
	if got := h.Quantile(0.5); got != 9 {
		t.Fatalf("post-reset quantile = %d, want 9", got)
	}
}

// TestHistogramExactSmallValues: values below subCount are exact.
func TestHistogramExactSmallValues(t *testing.T) {
	var h Histogram
	for v := uint64(0); v < subCount; v++ {
		h.Observe(v)
	}
	for q, want := range map[float64]uint64{0.5: 15, 1.0: 31} {
		if got := h.Quantile(q); got != want {
			t.Errorf("q=%v: got %d, want %d", q, got, want)
		}
	}
}

func TestBucketMonotone(t *testing.T) {
	prev := -1
	for _, v := range []uint64{0, 1, 31, 32, 33, 63, 64, 100, 1 << 20, 1<<20 + 1, 1 << 40, ^uint64(0)} {
		b := bucketOf(v)
		if b < prev {
			t.Fatalf("bucketOf(%d)=%d < previous %d", v, b, prev)
		}
		if u := bucketUpper(b); u < v {
			t.Fatalf("bucketUpper(%d)=%d < value %d", b, u, v)
		}
		prev = b
	}
}

// TestSeriesGaugeTimeWeighted: a gauge at level 4 for the first half of
// a window and 8 for the second half averages 6.
func TestSeriesGaugeTimeWeighted(t *testing.T) {
	r := NewRecorder(Options{Window: 100})
	r.Gauge(SeriesWQOccupancy, 0, 4)
	r.Gauge(SeriesWQOccupancy, 50, 8)
	r.Gauge(SeriesWQOccupancy, 100, 2) // window 1: level 2 throughout
	r.Finish(200)
	got := r.SeriesValues(SeriesWQOccupancy)
	want := []float64{6, 2}
	if len(got) != len(want) {
		t.Fatalf("got %d windows %v, want %v", len(got), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("window %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

// TestSeriesGaugePartialWindow: the final partial window is averaged
// over the cycles it actually covers, not the full window width.
func TestSeriesGaugePartialWindow(t *testing.T) {
	r := NewRecorder(Options{Window: 100})
	r.Gauge(SeriesWQOccupancy, 0, 10)
	r.Finish(150) // window 1 covers only 50 cycles
	got := r.SeriesValues(SeriesWQOccupancy)
	if len(got) != 2 || got[0] != 10 || got[1] != 10 {
		t.Fatalf("got %v, want [10 10]", got)
	}
}

func TestSeriesCounts(t *testing.T) {
	r := NewRecorder(Options{Window: 10})
	r.Count(SeriesCtrHits, 0, 1)
	r.Count(SeriesCtrHits, 9, 2)
	r.Count(SeriesCtrHits, 10, 5)
	r.Count(SeriesCtrHits, 35, 1)
	r.Finish(40)
	got := r.SeriesValues(SeriesCtrHits)
	want := []float64{3, 5, 0, 1}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("window %d: got %v, want %v (%v)", i, got[i], want[i], got)
		}
	}
}

// TestBankBusySpans: spans split across window boundaries yield correct
// per-window busy fractions.
func TestBankBusySpans(t *testing.T) {
	r := NewRecorder(Options{Window: 100})
	r.BankBusy(2, 50, 150, "write") // half of window 0, half of window 1
	r.BankBusy(2, 150, 200, "write")
	r.Finish(200)
	got := r.BankBusyFractions(2)
	if len(got) != 2 || got[0] != 0.5 || got[1] != 1.0 {
		t.Fatalf("got %v, want [0.5 1.0]", got)
	}
	if r.BankBusyFractions(5) != nil {
		t.Fatalf("untouched bank should have no series")
	}
}

// TestNilRecorderNoOps: every method on a nil recorder must be safe.
func TestNilRecorderNoOps(t *testing.T) {
	var r *Recorder
	r.Observe(HistTxLatency, 1)
	r.Count(SeriesCtrHits, 0, 1)
	r.Gauge(SeriesWQOccupancy, 0, 1)
	r.BankBusy(0, 0, 10, "x")
	r.EngineEvent(5)
	r.Span(TrackQueue, "s", 0, 1)
	r.SpanArg(TrackQueue, "s", 0, 1, "k", 2)
	r.AsyncBegin(TrackQueue, "a", 1, 0)
	r.AsyncEnd(TrackQueue, "a", 1, 1)
	r.Instant(TrackRSR, "i", 0)
	r.InstantArg(TrackRSR, "i", 0, "k", 1)
	r.CoreObserve(0, HistTxLatency, 1)
	r.ResetCore(0)
	r.Finish(10)
	if r.Window() != 0 || r.TraceEnabled() {
		t.Fatal("nil recorder reports enabled state")
	}
	if s := r.Snapshot(); s.TxLatency.Count != 0 {
		t.Fatal("nil recorder snapshot non-empty")
	}
	if r.SeriesValues(SeriesCtrHits) != nil {
		t.Fatal("nil recorder returned series values")
	}
	kept, dropped := r.TraceStats()
	if kept != 0 || dropped != 0 {
		t.Fatal("nil recorder trace stats non-zero")
	}
}

// TestWriteTraceRoundTrip: events written by WriteTrace parse back with
// the expected phases, names, and counts.
func TestWriteTraceRoundTrip(t *testing.T) {
	r := NewRecorder(Options{Window: 100, Trace: true})
	r.BankBusy(0, 0, 40, "data write")
	r.BankBusy(1, 10, 90, "ctr write")
	r.AsyncBegin(TrackQueue, "wq entry", 7, 5)
	r.AsyncEnd(TrackQueue, "wq entry", 7, 45)
	r.Instant(TrackQueue, "cwc remove", 30)
	r.SpanArg(TrackRSR, "re-encrypt page", 100, 600, "page", 3)
	r.Gauge(SeriesWQOccupancy, 0, 2)
	r.Count(SeriesCtrHits, 20, 4)
	r.EngineEvent(600)
	r.Finish(600)

	var buf bytes.Buffer
	if err := WriteTrace(&buf, TraceSection{PID: 1, Name: "cell hashtable/SuperMem", Rec: r}); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	sum, err := ReadTraceSummary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadTraceSummary: %v\n%s", err, buf.String())
	}
	if sum.Spans != 5 { // 2 bank + b + e + rsr
		t.Errorf("spans = %d, want 5", sum.Spans)
	}
	if sum.Instants != 1 {
		t.Errorf("instants = %d, want 1", sum.Instants)
	}
	if sum.Counters == 0 {
		t.Errorf("no counter events emitted")
	}
	if sum.Meta < 4 { // process_name + >=3 thread_names
		t.Errorf("meta = %d, want >= 4", sum.Meta)
	}
	for _, name := range []string{"data write", "ctr write", "wq entry", "cwc remove", "re-encrypt page"} {
		if sum.ByName[name] == 0 {
			t.Errorf("event %q missing from round-trip", name)
		}
	}
	// Determinism: a second serialization is byte-identical.
	var buf2 bytes.Buffer
	if err := WriteTrace(&buf2, TraceSection{PID: 1, Name: "cell hashtable/SuperMem", Rec: r}); err != nil {
		t.Fatalf("WriteTrace#2: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Errorf("WriteTrace output not deterministic")
	}
}

func TestTraceBufferCap(t *testing.T) {
	r := NewRecorder(Options{Window: 100, Trace: true, MaxTraceEvents: 3})
	for i := 0; i < 10; i++ {
		r.Instant(TrackQueue, "e", uint64(i))
	}
	kept, dropped := r.TraceStats()
	if kept != 3 || dropped != 7 {
		t.Fatalf("kept/dropped = %d/%d, want 3/7", kept, dropped)
	}
}

func TestReadTraceSummaryRejectsBadPhase(t *testing.T) {
	bad := `{"traceEvents":[{"ph":"Z","name":"x","pid":1,"tid":1,"ts":0}]}`
	if _, err := ReadTraceSummary(bytes.NewReader([]byte(bad))); err == nil {
		t.Fatal("expected error for unknown phase")
	}
}
