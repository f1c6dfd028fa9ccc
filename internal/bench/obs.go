package bench

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"supermem/internal/obs"
)

// CellObs is the observability capture of one grid cell.
type CellObs struct {
	// Cell is the cell's index in its experiment's cell order. Labels
	// repeat (every MLP core variant has a btree/WT cell); the index
	// tells such cells apart.
	Cell int `json:"cell"`
	// Label is "<workload>/<scheme>" (see cellLabel).
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

// Name identifies the capture in -hist output and trace sections: its
// cell index, label and sizing.
func (c CellObs) Name() string {
	return fmt.Sprintf("cell %d %s tx=%dB wq=%d", c.Cell, c.Label, c.TxBytes, c.WriteQueue)
}

// cellLabel renders a spec's collector label, "<workload>/<scheme>". A
// cell whose cores run different workloads names each distinct one in
// core order, joined by "+": the attack's DoS cells, a hotbank attacker
// on core 0 beside the array victim, read "hotbank+array/WT", apart
// from the victim-alone "array/WT".
func cellLabel(s Spec) string {
	var wls []string
	for i := 0; i < s.Cores; i++ {
		if wl := s.coreWorkload(i); !slices.Contains(wls, wl) {
			wls = append(wls, wl)
		}
	}
	return strings.Join(wls, "+") + "/" + s.Scheme.String()
}

// ObsCollector attaches observability recorders to benchmark cells and
// gathers their results. Histograms are collected for every cell when
// Hist is set; trace events are buffered only for cells whose label
// matches TraceLabel (exactly one cell in a figure grid — each
// workload/scheme pair appears once; sensitivity grids like Fig16 and
// the kv and mlp grids can match several cells, each becoming its own
// trace process).
//
// Cells are numbered and collected in cell order, so output is
// byte-identical between serial and parallel runs. The numbering runs
// across every cell the collector is offered, so a collector serves
// one experiment (the CLI makes a fresh one per experiment).
type ObsCollector struct {
	// Window is the series sampling window in cycles (0 = default).
	Window uint64
	// Hist enables histogram collection on every cell.
	Hist bool
	// TraceLabel selects trace-event cells by "<workload>/<scheme>"
	// label, as cellLabel renders it ("" disables tracing).
	TraceLabel string
	// MaxTraceEvents caps each traced cell's event buffer (0 = default).
	MaxTraceEvents int

	mu    sync.Mutex
	next  int // the index newCell gives the next cell
	cells []CellObs
}

// newCell opens the capture of the experiment's next cell: it numbers
// the cell and, when the collector wants it (histograms on, or label
// traced), attaches a recorder; Rec is nil otherwise. A nil collector
// numbers nothing and records nothing.
func (c *ObsCollector) newCell(label string, txBytes, writeQueue int) CellObs {
	if c == nil {
		return CellObs{}
	}
	c.mu.Lock()
	cell := CellObs{Cell: c.next, Label: label, TxBytes: txBytes, WriteQueue: writeQueue}
	c.next++
	c.mu.Unlock()
	if trace := c.TraceLabel != "" && c.TraceLabel == label; c.Hist || trace {
		cell.Rec = obs.NewRecorder(obs.Options{Window: c.Window, Trace: trace, MaxTraceEvents: c.MaxTraceEvents})
	}
	return cell
}

// collect snapshots the finished cells' recorders and appends the
// captures in cell order, skipping cells that got no recorder. A nil
// collector collects nothing.
func (c *ObsCollector) collect(cells []CellObs) {
	if c == nil {
		return
	}
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
				Name: cell.Name(),
				Rec:  cell.Rec,
			})
		}
	}
	return out
}
