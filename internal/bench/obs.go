package bench

import (
	"fmt"
	"sync"

	"supermem/internal/obs"
)

// CellObs is the observability capture of one grid cell.
type CellObs struct {
	// Label is "<workload>/<scheme>".
	Label string `json:"label"`
	// TxBytes is the cell's transaction size.
	TxBytes int `json:"tx_bytes"`
	// WriteQueue is the cell's write-queue capacity (varies in Fig16).
	WriteQueue int `json:"write_queue"`
	// Hist summarises the cell's latency histograms.
	Hist obs.Snapshot `json:"hist"`
	// Rec is the cell's recorder (trace export); omitted from JSON.
	Rec *obs.Recorder `json:"-"`
}

// cellLabel renders a spec's collector label.
func cellLabel(s Spec) string { return s.Workload + "/" + s.Scheme.String() }

// ObsCollector attaches observability recorders to benchmark cells and
// gathers their results. Histograms are collected for every cell when
// Hist is set; trace events are buffered only for cells whose label
// matches TraceLabel (exactly one cell in a figure grid — each
// workload/scheme pair appears once; sensitivity grids like Fig16 can
// match several cells, each becoming its own trace process).
//
// Collection order is cell order, so output is byte-identical between
// serial and parallel runs.
type ObsCollector struct {
	// Window is the series sampling window in cycles (0 = default).
	Window uint64
	// Hist enables histogram collection on every cell.
	Hist bool
	// TraceLabel selects trace-event cells by "<workload>/<scheme>"
	// label ("" disables tracing).
	TraceLabel string
	// MaxTraceEvents caps each traced cell's event buffer (0 = default).
	MaxTraceEvents int

	mu    sync.Mutex
	cells []CellObs
}

// newRecorder builds the recorder for the cell labelled label, or nil
// when the collector wants nothing from it.
func (c *ObsCollector) newRecorder(label string) *obs.Recorder {
	trace := c.TraceLabel != "" && c.TraceLabel == label
	if !c.Hist && !trace {
		return nil
	}
	return obs.NewRecorder(obs.Options{Window: c.Window, Trace: trace, MaxTraceEvents: c.MaxTraceEvents})
}

// collect snapshots the finished cells' recorders and appends the
// captures in cell order, skipping cells that got no recorder.
func (c *ObsCollector) collect(cells []CellObs) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, cell := range cells {
		if cell.Rec == nil {
			continue
		}
		cell.Hist = cell.Rec.Snapshot()
		c.cells = append(c.cells, cell)
	}
}

// Cells returns the collected captures in run order.
func (c *ObsCollector) Cells() []CellObs {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]CellObs, len(c.cells))
	copy(out, c.cells)
	return out
}

// TraceSections returns the traced cells as trace_event sections, one
// process per cell (PIDs follow run order).
func (c *ObsCollector) TraceSections() []obs.TraceSection {
	var out []obs.TraceSection
	for _, cell := range c.Cells() {
		if cell.Rec.TraceEnabled() {
			out = append(out, obs.TraceSection{
				PID:  len(out) + 1,
				Name: fmt.Sprintf("%s tx=%dB wq=%d", cell.Label, cell.TxBytes, cell.WriteQueue),
				Rec:  cell.Rec,
			})
		}
	}
	return out
}
