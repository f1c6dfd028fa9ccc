// Package obs is the observability layer for the SuperMem simulator:
// windowed time-series samplers, latency histograms, and a Chrome
// trace_event exporter. It is always compiled in; a nil *Recorder is a
// valid disabled recorder whose methods are branch-predictable no-ops,
// so instrumented hot paths cost a single nil check when observability
// is off.
package obs

import (
	"fmt"
	"strings"
)

// HistID names one of the recorder's latency histograms.
type HistID int

const (
	// HistTxLatency is end-to-end transaction latency in cycles.
	HistTxLatency HistID = iota
	// HistReadStall is per-read stall cycles (memory read completion
	// minus request cycle).
	HistReadStall
	// HistWQStall is per-enqueue write-queue admission stall cycles.
	HistWQStall
	// HistReadRetry is per-read retry attempts consumed recovering from
	// transient bank faults (observed only for reads that needed >0).
	HistReadRetry

	numHists
)

func (h HistID) String() string {
	switch h {
	case HistTxLatency:
		return "tx_latency"
	case HistReadStall:
		return "read_stall"
	case HistWQStall:
		return "wq_stall"
	case HistReadRetry:
		return "read_retry"
	}
	return fmt.Sprintf("hist(%d)", int(h))
}

// SeriesID names one of the recorder's windowed time series.
type SeriesID int

const (
	// SeriesWQOccupancy is the write-queue occupancy level (gauge).
	SeriesWQOccupancy SeriesID = iota
	// SeriesCtrHits counts counter-cache hits per window.
	SeriesCtrHits
	// SeriesCtrMisses counts counter-cache misses per window.
	SeriesCtrMisses
	// SeriesCoalesced counts CWC counter-write removals per window.
	SeriesCoalesced
	// SeriesCtrEnqueues counts counter-write enqueues per window.
	SeriesCtrEnqueues
	// SeriesEngineEvents counts simulator events fired per window.
	SeriesEngineEvents
	// SeriesBankRemaps counts accesses remapped away from quarantined
	// banks per window.
	SeriesBankRemaps
	// SeriesCtrDeferred counts counter writes deferred by relaxed
	// counter-persistence schemes (Osiris's stop-loss) per window.
	SeriesCtrDeferred
	// SeriesTreeWrites counts integrity-tree node writes enqueued per
	// window (integrity-tree schemes only).
	SeriesTreeWrites
	// SeriesThrottleStalls counts minor-counter bumps stalled by the
	// overflow throttle's token bucket per window.
	SeriesThrottleStalls
	// SeriesWearRemaps counts write services the wear-leveling rotation
	// moved off their home bank per window.
	SeriesWearRemaps
	// SeriesRecoveryBounded counts recovery passes that hit the
	// recovery-work bound and degraded to staged recovery per window.
	SeriesRecoveryBounded
	// SeriesMSHROccupancy is the number of outstanding MSHR entries on
	// an OoO core when a miss allocates one (gauge).
	SeriesMSHROccupancy
	// SeriesPrefetchIssued counts stride prefetches issued per window;
	// SeriesPrefetchUseful counts prefetched lines a later demand access
	// hit; SeriesPrefetchDropped counts candidates discarded for
	// write-queue pressure or a full MSHR file.
	SeriesPrefetchIssued
	SeriesPrefetchUseful
	SeriesPrefetchDropped

	numSeries
)

// Options configures a Recorder.
type Options struct {
	// Window is the sampling window in simulated cycles (default 4096).
	Window uint64
	// Trace enables trace_event buffering.
	Trace bool
	// MaxTraceEvents caps the trace buffer (default 1<<20); events past
	// the cap are counted, not silently lost.
	MaxTraceEvents int
}

// Recorder collects series, histograms, and (optionally) trace events
// for one simulation. It is not safe for concurrent use; in parallel
// benchmark runs each cell owns its recorder, which is what keeps
// serial and parallel output byte-identical.
//
// A nil *Recorder is the disabled recorder: every method no-ops.
type Recorder struct {
	window    uint64
	hists     [numHists]Histogram   // whole-run histograms (Observe)
	coreHists [][numHists]Histogram // per-core histograms (CoreObserve)
	series    [numSeries]series
	banks     []series // per-bank busy-cycle accumulators
	trace     *TraceBuffer
	end       uint64 // final cycle, set by Finish
}

// NewRecorder returns an enabled recorder.
func NewRecorder(o Options) *Recorder {
	if o.Window == 0 {
		o.Window = 4096
	}
	r := &Recorder{window: o.Window}
	r.series[SeriesWQOccupancy].kind = kindGauge
	for i := range r.series[1:] {
		r.series[i+1].kind = kindCount
	}
	r.series[SeriesMSHROccupancy].kind = kindGauge
	if o.Trace {
		r.trace = newTraceBuffer(o.MaxTraceEvents)
	}
	return r
}

// Window returns the sampling window in cycles (0 when disabled).
func (r *Recorder) Window() uint64 {
	if r == nil {
		return 0
	}
	return r.window
}

// TraceEnabled reports whether trace events are being buffered.
func (r *Recorder) TraceEnabled() bool { return r != nil && r.trace != nil }

// TraceStats returns the number of buffered and dropped trace events.
func (r *Recorder) TraceStats() (kept, dropped int) {
	if r == nil || r.trace == nil {
		return 0, 0
	}
	return r.trace.Len(), r.trace.Dropped()
}

// Observe records a value into a whole-run histogram, one that no
// core's warmup boundary clears (read retries, like the ReadRetries
// counter they mirror).
func (r *Recorder) Observe(h HistID, v uint64) {
	if r == nil {
		return
	}
	r.hists[h].Observe(v)
}

// CoreObserve records a value into core's own histogram h. ResetCore
// clears them at the core's warmup boundary, as the core's metrics
// block restarts there. Sharded experiments read the per-core
// tx-latency histograms back with CoreTxHist to report per-shard tails
// and to Merge them into cross-shard quantiles.
func (r *Recorder) CoreObserve(core int, h HistID, v uint64) {
	if r != nil {
		r.coreObserve(core, h, v)
	}
}

// coreObserve is CoreObserve's enabled path, kept out of line so the
// nil check inlines into the core's read and write paths.
//
//go:noinline
func (r *Recorder) coreObserve(core int, h HistID, v uint64) {
	for len(r.coreHists) <= core {
		r.coreHists = append(r.coreHists, [numHists]Histogram{})
	}
	r.coreHists[core][h].Observe(v)
}

// ResetCore clears core's histograms (at its trace.Reset), so they
// cover only that core's measured transactions.
func (r *Recorder) ResetCore(core int) {
	if r == nil || core >= len(r.coreHists) {
		return
	}
	for i := range r.coreHists[core] {
		r.coreHists[core][i].Reset()
	}
}

// CoreTxHist returns core's tx-latency histogram, or nil when that core
// never recorded one.
func (r *Recorder) CoreTxHist(core int) *Histogram {
	if r == nil || core < 0 || core >= len(r.coreHists) {
		return nil
	}
	return &r.coreHists[core][HistTxLatency]
}

// RoleSplit merges the per-core tx-latency histograms into an
// attacker-vs-victim split: cores listed in attackers merge into the
// first histogram, every other recorded core into the second. The
// attack experiment reads victim tail latency under a co-located
// adversary from the victim half. Histogram merging is exact and
// order-independent, so the split is byte-identical at any worker
// parallelism and for any ordering of the attackers list.
func (r *Recorder) RoleSplit(attackers ...int) (attacker, victim Histogram) {
	if r == nil {
		return
	}
	isAttacker := func(core int) bool {
		for _, a := range attackers {
			if a == core {
				return true
			}
		}
		return false
	}
	for core := range r.coreHists {
		if isAttacker(core) {
			attacker.Merge(r.CoreTxHist(core))
		} else {
			victim.Merge(r.CoreTxHist(core))
		}
	}
	return
}

// Count adds n occurrences to a counting series at cycle now.
func (r *Recorder) Count(s SeriesID, now uint64, n int) {
	if r == nil {
		return
	}
	r.series[s].add(r.window, now, float64(n))
}

// Gauge records a level change of a gauge series at cycle now.
func (r *Recorder) Gauge(s SeriesID, now uint64, v float64) {
	if r == nil {
		return
	}
	r.series[s].set(r.window, now, v)
}

// BankBusy records that bank b was busy over cycles [start, end), and
// emits a bank-reservation span when tracing.
func (r *Recorder) BankBusy(bank int, start, end uint64, name string) {
	if r == nil {
		return
	}
	for len(r.banks) <= bank {
		r.banks = append(r.banks, series{kind: kindGauge})
	}
	r.banks[bank].addSpan(r.window, start, end)
	if r.trace != nil {
		r.trace.push(event{ph: 'X', name: name, tid: TrackBank0 + Track(bank), ts: start, dur: end - start})
	}
}

// EngineEvent records one simulator event fired at cycle now and tracks
// the end of simulated time.
func (r *Recorder) EngineEvent(now uint64) {
	if r == nil {
		return
	}
	r.series[SeriesEngineEvents].add(r.window, now, 1)
	if now > r.end {
		r.end = now
	}
}

// Span buffers a complete ('X') trace span.
func (r *Recorder) Span(t Track, name string, start, end uint64) {
	if r == nil || r.trace == nil {
		return
	}
	r.trace.push(event{ph: 'X', name: name, tid: t, ts: start, dur: end - start})
}

// SpanArg buffers a complete span with one numeric argument.
func (r *Recorder) SpanArg(t Track, name string, start, end uint64, k string, v uint64) {
	if r == nil || r.trace == nil {
		return
	}
	r.trace.push(event{ph: 'X', name: name, tid: t, ts: start, dur: end - start, argK: k, argV: v})
}

// AsyncBegin buffers the start of an async ('b') span keyed by id.
func (r *Recorder) AsyncBegin(t Track, name string, id, ts uint64) {
	if r == nil || r.trace == nil {
		return
	}
	r.trace.push(event{ph: 'b', name: name, tid: t, ts: ts, id: id})
}

// AsyncEnd buffers the end of an async span keyed by id.
func (r *Recorder) AsyncEnd(t Track, name string, id, ts uint64) {
	if r == nil || r.trace == nil {
		return
	}
	r.trace.push(event{ph: 'e', name: name, tid: t, ts: ts, id: id})
}

// Instant buffers an instant ('i') event.
func (r *Recorder) Instant(t Track, name string, ts uint64) {
	if r == nil || r.trace == nil {
		return
	}
	r.trace.push(event{ph: 'i', name: name, tid: t, ts: ts})
}

// InstantArg buffers an instant event with one numeric argument.
func (r *Recorder) InstantArg(t Track, name string, ts uint64, k string, v uint64) {
	if r == nil || r.trace == nil {
		return
	}
	r.trace.push(event{ph: 'i', name: name, tid: t, ts: ts, argK: k, argV: v})
}

// Finish pins the end of simulated time (needed to finalize the last
// partial window of gauge series).
func (r *Recorder) Finish(endCycle uint64) {
	if r == nil {
		return
	}
	if endCycle > r.end {
		r.end = endCycle
	}
}

// Snapshot is the JSON-friendly histogram summary of one run.
type Snapshot struct {
	TxLatency HistSnapshot `json:"tx_latency"`
	ReadStall HistSnapshot `json:"read_stall"`
	WQStall   HistSnapshot `json:"wq_stall"`
	ReadRetry HistSnapshot `json:"read_retry"`
}

// Snapshot summarises the recorder's histograms, each the merge of its
// whole-run and per-core parts.
func (r *Recorder) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	var merged [numHists]Histogram
	for h := range merged {
		merged[h].Merge(&r.hists[h])
		for core := range r.coreHists {
			merged[h].Merge(&r.coreHists[core][h])
		}
	}
	return Snapshot{
		TxLatency: merged[HistTxLatency].Snapshot(),
		ReadStall: merged[HistReadStall].Snapshot(),
		WQStall:   merged[HistWQStall].Snapshot(),
		ReadRetry: merged[HistReadRetry].Snapshot(),
	}
}

// String renders the snapshot as an aligned table for -hist output.
func (s Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %10s %10s %10s %10s %12s %10s\n",
		"histogram", "count", "p50", "p95", "p99", "mean", "max")
	row := func(name string, h HistSnapshot) {
		fmt.Fprintf(&b, "%-12s %10d %10d %10d %10d %12.1f %10d\n",
			name, h.Count, h.P50, h.P95, h.P99, h.Mean, h.Max)
	}
	row("tx_latency", s.TxLatency)
	row("read_stall", s.ReadStall)
	row("wq_stall", s.WQStall)
	row("read_retry", s.ReadRetry)
	return b.String()
}

// counterTrack is one windowed series rendered as a trace counter.
type counterTrack struct {
	name   string
	values []float64
	dense  bool // emit zero-valued windows too
}

// counterTracks finalizes the windowed series for trace export.
func (r *Recorder) counterTracks() []counterTrack {
	end := r.end
	occ := r.series[SeriesWQOccupancy].values(r.window, end)
	hits := r.series[SeriesCtrHits].values(r.window, end)
	miss := r.series[SeriesCtrMisses].values(r.window, end)
	coal := r.series[SeriesCoalesced].values(r.window, end)
	cenq := r.series[SeriesCtrEnqueues].values(r.window, end)
	tracks := []counterTrack{
		{name: "wq occupancy", values: occ, dense: true},
		{name: "ctr hit rate", values: rate(hits, miss)},
		{name: "coalesce rate", values: rate(coal, cenq)},
		{name: "engine events/window", values: r.series[SeriesEngineEvents].values(r.window, end)},
		{name: "bank remaps/window", values: r.series[SeriesBankRemaps].values(r.window, end)},
		{name: "ctr deferred/window", values: r.series[SeriesCtrDeferred].values(r.window, end)},
		{name: "tree writes/window", values: r.series[SeriesTreeWrites].values(r.window, end)},
		{name: "throttle stalls/window", values: r.series[SeriesThrottleStalls].values(r.window, end)},
		{name: "wear remaps/window", values: r.series[SeriesWearRemaps].values(r.window, end)},
		{name: "recovery work bounded/window", values: r.series[SeriesRecoveryBounded].values(r.window, end)},
		{name: "mshr occupancy", values: r.series[SeriesMSHROccupancy].values(r.window, end), dense: true},
		{name: "prefetch accuracy", values: rate(r.series[SeriesPrefetchUseful].values(r.window, end), sub(r.series[SeriesPrefetchIssued].values(r.window, end), r.series[SeriesPrefetchUseful].values(r.window, end)))},
		{name: "prefetch dropped/window", values: r.series[SeriesPrefetchDropped].values(r.window, end)},
	}
	for b := range r.banks {
		tracks = append(tracks, counterTrack{
			name:   fmt.Sprintf("bank %d busy", b),
			values: r.banks[b].values(r.window, end),
		})
	}
	return tracks
}

// SeriesValues finalizes one windowed series (tests and tools).
func (r *Recorder) SeriesValues(s SeriesID) []float64 {
	if r == nil {
		return nil
	}
	return r.series[s].values(r.window, r.end)
}

// BankBusyFractions finalizes the per-bank busy-fraction series.
func (r *Recorder) BankBusyFractions(bank int) []float64 {
	if r == nil || bank >= len(r.banks) {
		return nil
	}
	return r.banks[bank].values(r.window, r.end)
}

// rate returns a[i]/(a[i]+b[i]) per window, skipping empty windows.
// sub returns the elementwise difference a-b, padding the shorter
// input with zeros (windowed series may end at different cycles).
func sub(a, b []float64) []float64 {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		var av, bv float64
		if i < len(a) {
			av = a[i]
		}
		if i < len(b) {
			bv = b[i]
		}
		out[i] = av - bv
	}
	return out
}

func rate(a, b []float64) []float64 {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	out := make([]float64, n)
	at := func(s []float64, i int) float64 {
		if i < len(s) {
			return s[i]
		}
		return 0
	}
	for i := 0; i < n; i++ {
		if tot := at(a, i) + at(b, i); tot > 0 {
			out[i] = at(a, i) / tot
		}
	}
	return out
}
