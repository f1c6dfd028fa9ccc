package obs

import (
	"math/rand"
	"sort"
	"testing"
)

// TestHistogramMergeOrderIndependent: merging per-shard histograms must
// yield the same snapshot regardless of shard completion order, and the
// merged quantiles must match observing every value into one histogram.
func TestHistogramMergeOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const shards = 5
	parts := make([]Histogram, shards)
	var direct Histogram
	var all []uint64
	for k := 0; k < shards; k++ {
		// Give each shard a different latency profile so a wrong merge
		// (e.g. one that keeps only the last min/max) is caught.
		base := uint64(1) << uint(4+2*k)
		n := 500 + 700*k
		for i := 0; i < n; i++ {
			v := base + uint64(rng.Intn(int(base)))
			parts[k].Observe(v)
			direct.Observe(v)
			all = append(all, v)
		}
	}

	orders := [][]int{
		{0, 1, 2, 3, 4},
		{4, 3, 2, 1, 0},
		{2, 0, 4, 1, 3},
		{3, 4, 0, 2, 1},
	}
	var first HistSnapshot
	for oi, order := range orders {
		var merged Histogram
		for _, k := range order {
			merged.Merge(&parts[k])
		}
		s := merged.Snapshot()
		if oi == 0 {
			first = s
		} else if s != first {
			t.Fatalf("order %v: snapshot %+v differs from order %v: %+v",
				order, s, orders[0], first)
		}
		want := direct.Snapshot()
		if s != want {
			t.Fatalf("order %v: merged snapshot %+v != direct-observe snapshot %+v",
				order, s, want)
		}
		// Validate merged quantiles against the sorted-slice oracle, same
		// bound as TestHistogramQuantileOracle.
		sorted := append([]uint64(nil), all...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for _, q := range []float64{0.5, 0.95, 0.99} {
			rank := int(q*float64(len(sorted)) + 0.5)
			if rank < 1 {
				rank = 1
			}
			if rank > len(sorted) {
				rank = len(sorted)
			}
			oracle := sorted[rank-1]
			got := merged.Quantile(q)
			if got < oracle {
				t.Errorf("order %v q=%v: got %d < oracle %d", order, q, got, oracle)
			}
			if bound := oracle + oracle/subCount + 1; got > bound {
				t.Errorf("order %v q=%v: got %d > bound %d (oracle %d)", order, q, got, bound, oracle)
			}
		}
	}
}

// TestHistogramMergeEdgeCases: merging nil or empty histograms is a
// no-op, and merging into an empty histogram copies the source.
func TestHistogramMergeEdgeCases(t *testing.T) {
	var h Histogram
	h.Observe(100)
	before := h.Snapshot()
	h.Merge(nil)
	var empty Histogram
	h.Merge(&empty)
	if h.Snapshot() != before {
		t.Fatalf("merge of nil/empty changed snapshot: %+v -> %+v", before, h.Snapshot())
	}

	var src Histogram
	src.Observe(7)
	src.Observe(9000)
	var dst Histogram
	dst.Merge(&src)
	if dst.Snapshot() != src.Snapshot() {
		t.Fatalf("merge into empty: %+v != source %+v", dst.Snapshot(), src.Snapshot())
	}
	if q := dst.Quantile(1.0); q < 9000 {
		t.Fatalf("merged max quantile %d < 9000", q)
	}
}

// TestCoreObserve: per-core histograms are independent and nil-safe;
// ResetCore clears only that core's histograms, never another core's or
// a whole-run one; Snapshot merges the whole-run and per-core parts.
func TestCoreObserve(t *testing.T) {
	var nilRec *Recorder
	nilRec.CoreObserve(3, HistTxLatency, 10) // must not panic
	nilRec.ResetCore(3)
	if nilRec.CoreTxHist(3) != nil {
		t.Fatal("nil recorder returned a core histogram")
	}

	r := NewRecorder(Options{Window: 100})
	r.CoreObserve(2, HistTxLatency, 50)
	r.CoreObserve(0, HistTxLatency, 5)
	r.CoreObserve(2, HistTxLatency, 70)
	r.CoreObserve(2, HistReadStall, 9)
	r.Observe(HistReadRetry, 1)
	if h := r.CoreTxHist(1); h == nil || h.Count() != 0 {
		t.Fatalf("untouched core 1 histogram: %v", h)
	}
	if h := r.CoreTxHist(2); h.Count() != 2 {
		t.Fatalf("core 2 count = %d, want 2", h.Count())
	}
	if r.CoreTxHist(9) != nil {
		t.Fatal("out-of-range core returned a histogram")
	}
	if s := r.Snapshot(); s.TxLatency.Count != 3 || s.ReadStall.Count != 1 || s.ReadRetry.Count != 1 {
		t.Fatalf("snapshot before reset: %+v", s)
	}
	r.ResetCore(2)
	r.ResetCore(9) // a core that never recorded: no-op
	if h := r.CoreTxHist(2); h.Count() != 0 {
		t.Fatalf("core 2 count after ResetCore(2) = %d, want 0", h.Count())
	}
	if h := r.CoreTxHist(0); h.Count() != 1 {
		t.Fatalf("core 0 count after ResetCore(2) = %d, want 1", h.Count())
	}
	if s := r.Snapshot(); s.TxLatency.Count != 1 || s.ReadStall.Count != 0 || s.ReadRetry.Count != 1 {
		t.Fatalf("snapshot after ResetCore(2): %+v", s)
	}
}

// TestRoleSplitOrderIndependent: the attacker-vs-victim histogram split
// must not depend on the order the attackers list names cores, and the
// two halves must exactly partition the per-core observations.
func TestRoleSplitOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r := NewRecorder(Options{Window: 100})
	const cores = 4
	var direct [cores]Histogram
	// Interleave observations across cores so per-core state is built
	// the way a real multi-core run builds it.
	for i := 0; i < 4000; i++ {
		core := i % cores
		v := uint64(100*(core+1)) + uint64(rng.Intn(100))
		r.CoreObserve(core, HistTxLatency, v)
		direct[core].Observe(v)
	}

	var wantAtk, wantVic Histogram
	wantAtk.Merge(&direct[0])
	wantAtk.Merge(&direct[2])
	wantVic.Merge(&direct[1])
	wantVic.Merge(&direct[3])
	for _, attackers := range [][]int{{0, 2}, {2, 0}} {
		atk, vic := r.RoleSplit(attackers...)
		if atk.Snapshot() != wantAtk.Snapshot() {
			t.Fatalf("attackers %v: attacker snapshot %+v, want %+v", attackers, atk.Snapshot(), wantAtk.Snapshot())
		}
		if vic.Snapshot() != wantVic.Snapshot() {
			t.Fatalf("attackers %v: victim snapshot %+v, want %+v", attackers, vic.Snapshot(), wantVic.Snapshot())
		}
	}

	// No attackers: everything lands in the victim half.
	atk, vic := r.RoleSplit()
	if atk.Snapshot().Count != 0 {
		t.Fatalf("empty attacker split observed %d values", atk.Snapshot().Count)
	}
	var wantAll Histogram
	for i := range direct {
		wantAll.Merge(&direct[i])
	}
	if vic.Snapshot() != wantAll.Snapshot() {
		t.Fatalf("no-attacker victim snapshot %+v, want all-core merge %+v", vic.Snapshot(), wantAll.Snapshot())
	}

	// A nil recorder splits into two empty histograms.
	var nilRec *Recorder
	atk, vic = nilRec.RoleSplit(0)
	if atk.Snapshot().Count != 0 || vic.Snapshot().Count != 0 {
		t.Fatal("nil recorder RoleSplit must be empty")
	}
}
