package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime/metrics"
	"sort"
	"time"
)

// Span categories, outermost first: workload → phase → pass → cell →
// layer call.
const (
	catWorkload = "workload"
	catPhase    = "phase"
	catPass     = "pass"
	catCell     = "cell"
	catLayer    = "layer"
)

// span is one timed interval recorded by the benchmark around a call
// into the program. Spans nest strictly: each ends before its parent.
type span struct {
	name, cat  string
	id, parent int
	// cell is the id of the enclosing cell span, or -1 outside cells;
	// every span of one cell shares it.
	cell       int
	start, end time.Duration // since the tracer's epoch
	// mallocs and allocBytes are the heap allocations made inside the
	// span.
	mallocs, allocBytes uint64
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced runs measure.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int // ids of the spans not yet ended, innermost last
	cell  int
	alloc []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{
		epoch: time.Now(),
		cell:  -1,
		alloc: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}},
	}
}

func (t *tracer) allocs() (objects, bytes uint64) {
	metrics.Read(t.alloc)
	return t.alloc[0].Value.Uint64(), t.alloc[1].Value.Uint64()
}

// begin opens a span inside the innermost open one and returns its id.
func (t *tracer) begin(name, cat string) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	if cat == catCell {
		t.cell = id
	}
	objs, bytes := t.allocs()
	t.spans = append(t.spans, span{
		name: name, cat: cat, id: id, parent: parent, cell: t.cell,
		start: time.Since(t.epoch), mallocs: objs, allocBytes: bytes,
	})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch)
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic(fmt.Sprintf("tracer: span %d ended out of order", id))
	}
	t.open = t.open[:len(t.open)-1]
	objs, bytes := t.allocs()
	s := &t.spans[id]
	s.end = now
	s.mallocs = objs - s.mallocs
	s.allocBytes = bytes - s.allocBytes
	if s.cat == catCell {
		t.cell = -1
	}
}

// selfTimes returns each span's duration minus the time its children
// cover. Children never overlap, so that is the sum of their durations.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if s.parent >= 0 {
			self[s.parent] -= s.dur()
		}
	}
	return self
}

// layerRow aggregates the spans of one name.
type layerRow struct {
	name       string
	count      int
	busy, self time.Duration
	mallocs    uint64
}

// layerTable aggregates spans by name, in order of first appearance.
func layerTable(spans []span) []layerRow {
	self := selfTimes(spans)
	idx := map[string]int{}
	var rows []layerRow
	for i, s := range spans {
		j, ok := idx[s.name]
		if !ok {
			j = len(rows)
			idx[s.name] = j
			rows = append(rows, layerRow{name: s.name})
		}
		r := &rows[j]
		r.count++
		r.busy += s.dur()
		r.self += self[i]
		r.mallocs += s.mallocs
	}
	return rows
}

// printLayerTable writes the per-layer table: span count, busy time,
// and self time, with self times summing to the traced wall time.
func printLayerTable(w io.Writer, spans []span) {
	rows := layerTable(spans)
	var wall, selfSum time.Duration
	for _, s := range spans {
		if s.parent < 0 {
			wall += s.dur()
		}
	}
	fmt.Fprintf(w, "%-18s %8s %12s %12s %7s %14s\n", "span", "count", "busy_s", "self_s", "self%", "mallocs")
	for _, r := range rows {
		selfSum += r.self
		fmt.Fprintf(w, "%-18s %8d %12.6f %12.6f %6.2f%% %14d\n",
			r.name, r.count, r.busy.Seconds(), r.self.Seconds(), 100*r.self.Seconds()/wall.Seconds(), r.mallocs)
	}
	fmt.Fprintf(w, "%-18s %8s %12.6f %12.6f\n", "traced wall", "", wall.Seconds(), selfSum.Seconds())
}

// traceEvent is one Chrome trace_event "X" (complete) event.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeTrace writes the spans as trace_event JSON, which Perfetto and
// chrome://tracing open. Times are host microseconds.
func writeTrace(path string, spans []span, cellNames map[int]string) error {
	events := make([]traceEvent, 0, len(spans))
	for _, s := range spans {
		args := map[string]any{"id": s.id, "parent": s.parent, "mallocs": s.mallocs, "alloc_bytes": s.allocBytes}
		if s.cell >= 0 {
			args["cell"] = s.cell
			args["cell_name"] = cellNames[s.cell]
		}
		events = append(events, traceEvent{
			Name: s.name, Cat: s.cat, Ph: "X",
			Ts:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64(s.dur().Nanoseconds()) / 1e3,
			Pid: 1, Tid: 1, Args: args,
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = json.NewEncoder(bw).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return nil
}

// durations returns the durations of the spans named name, in seconds,
// sorted.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.name == name {
			out = append(out, s.dur().Seconds())
		}
	}
	sort.Float64s(out)
	return out
}
