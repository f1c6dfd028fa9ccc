// Package stats collects simulation metrics and renders the result
// tables the benchmark harness prints for each paper figure.
package stats

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
)

// Metrics accumulates the counters a single simulation run produces.
//
// Every field is a uint64 whose `stat` tag declares how per-core blocks
// merge (Add) and how the warmup snapshot comes off (Sub); a new metric
// is one field, with no list to update:
//   - untagged: a measured-phase counter. Add sums, Sub subtracts.
//   - stat:"max": the clock. Add keeps the later time (cores run
//     concurrently), Sub subtracts.
//   - stat:"whole-run": a counter that includes warmup. Add sums, Sub
//     keeps it.
type Metrics struct {
	// Cycles is the total simulated execution time.
	Cycles uint64 `stat:"max"`

	// Transactions is the number of completed durable transactions.
	Transactions uint64
	// TxCycles is the sum of per-transaction latencies.
	TxCycles uint64

	// DataWrites counts data-line writes issued to NVM.
	DataWrites uint64
	// CounterWrites counts counter-line writes issued to NVM.
	CounterWrites uint64
	// CoalescedWrites counts counter writes removed from the write
	// queue by CWC (each one is an NVM write that never happened).
	CoalescedWrites uint64
	// DeferredCtrWrites counts counter writes skipped by relaxed
	// counter-persistence schemes (Osiris's stop-loss): write-through
	// data writes whose counter stayed in the cache until the next
	// interval boundary.
	DeferredCtrWrites uint64

	// TreeNodeWrites counts integrity-tree node writes issued to NVM
	// (integrity-tree schemes only): the tree's write amplification.
	TreeNodeWrites uint64
	// TreeCoalescedWrites counts tree-node writes absorbed by the
	// tree's write-combining buffer (Streamlining-style coalescing).
	TreeCoalescedWrites uint64

	// NVMReads counts line reads served by the NVM device.
	NVMReads uint64

	// WQStallCycles is time cores spent stalled on a full write queue.
	WQStallCycles uint64
	// ReadStallCycles is time cores spent waiting for memory reads.
	ReadStallCycles uint64

	// CtrCacheHits/Misses count counter cache lookups.
	CtrCacheHits   uint64
	CtrCacheMisses uint64
	// CtrEvictions counts dirty counter-cache evictions (write-back
	// schemes write these to NVM).
	CtrEvictions uint64

	// Reencryptions counts minor-counter overflows that forced a page
	// re-encryption; ReencryptLines counts the lines rewritten for them.
	Reencryptions  uint64
	ReencryptLines uint64

	// ReadRetries counts extra read attempts spent recovering from
	// transient bank faults; UncorrectedReads counts reads that
	// exhausted the retry budget.
	//
	// These four fault counters are whole-run. The fault sweep's
	// quarantine cell kills its bank from cycle 0, so the dead bank's
	// retries and its quarantine all happen during setup, before the
	// warmup snapshot; its strict claims read them, and compare the
	// remap count with an observability series that spans the run.
	ReadRetries      uint64 `stat:"whole-run"`
	UncorrectedReads uint64 `stat:"whole-run"`
	// BankRemaps counts accesses redirected away from quarantined
	// banks; QuarantinedBanks counts banks taken out of service.
	BankRemaps       uint64 `stat:"whole-run"`
	QuarantinedBanks uint64 `stat:"whole-run"`

	// ThrottleStalls counts overflowing minor-counter bumps (page
	// re-encryption detonations) stalled by the overflow throttle's
	// token bucket; ThrottleStallCycles is the backpressure those
	// stalls charged the writers.
	ThrottleStalls      uint64
	ThrottleStallCycles uint64
	// WearRotations counts write-count-triggered advances of the
	// wear-leveling rotation; WearRemappedWrites counts write services
	// the rotation moved off their home bank.
	WearRotations      uint64
	WearRemappedWrites uint64

	// MSHRMerges counts demand misses absorbed by an already-outstanding
	// MSHR entry for the same line (OoO cores only): each one is an NVM
	// read that never happened. Store misses that merge are the
	// write-combining miss path.
	MSHRMerges uint64
	// MSHRFullStalls counts misses that found the MSHR file full;
	// MSHRStallCycles is the time those misses waited for a free entry.
	MSHRFullStalls  uint64
	MSHRStallCycles uint64

	// PrefetchIssued counts non-binding stride prefetches sent to the
	// memory controller; PrefetchUseful counts prefetched lines a demand
	// access later hit (in the cache fill or by merging with the
	// in-flight MSHR entry); PrefetchDropped counts prefetch candidates
	// discarded for write-queue pressure or a full MSHR file.
	PrefetchIssued  uint64
	PrefetchUseful  uint64
	PrefetchDropped uint64
}

// TotalNVMWrites is the headline write count of Figure 15.
func (m Metrics) TotalNVMWrites() uint64 { return m.DataWrites + m.CounterWrites }

// AvgTxCycles returns the mean transaction latency.
func (m Metrics) AvgTxCycles() float64 {
	if m.Transactions == 0 {
		return 0
	}
	return float64(m.TxCycles) / float64(m.Transactions)
}

// CtrCacheHitRate returns the counter cache hit rate (Figure 17a).
func (m Metrics) CtrCacheHitRate() float64 {
	total := m.CtrCacheHits + m.CtrCacheMisses
	if total == 0 {
		return 0
	}
	return float64(m.CtrCacheHits) / float64(total)
}

// rule is a Metrics field's merge and warmup rule, read from its
// `stat` tag.
type rule int

const (
	counter rule = iota
	clock
	wholeRun
)

// ruleTags maps each `stat` tag value to its rule.
var ruleTags = map[string]rule{"": counter, "max": clock, "whole-run": wholeRun}

// rules holds each Metrics field's rule in field order. Building it at
// package initialization panics on a field that is not a uint64 or has
// an unknown tag, so such a field fails every run instead of merging
// wrongly.
var rules = func() []rule {
	t := reflect.TypeOf(Metrics{})
	out := make([]rule, t.NumField())
	for i := range out {
		f := t.Field(i)
		r, ok := ruleTags[f.Tag.Get("stat")]
		if f.Type.Kind() != reflect.Uint64 || !ok {
			panic(fmt.Sprintf("stats: Metrics.%s must be a uint64, untagged or tagged stat:\"max\" or stat:\"whole-run\"", f.Name))
		}
		out[i] = r
	}
	return out
}()

// Add merges another core's block into m: counters sum, the clock takes
// the max.
func (m *Metrics) Add(other Metrics) {
	dst, src := reflect.ValueOf(m).Elem(), reflect.ValueOf(other)
	for i, r := range rules {
		d, v := dst.Field(i), src.Field(i).Uint()
		if r == clock {
			v = max(v, d.Uint())
		} else {
			v += d.Uint()
		}
		d.SetUint(v)
	}
}

// Sub takes the warmup snapshot warm off m: counters and the clock
// subtract, whole-run counters keep m's value.
func (m *Metrics) Sub(warm Metrics) {
	dst, src := reflect.ValueOf(m).Elem(), reflect.ValueOf(warm)
	for i, r := range rules {
		if r != wholeRun {
			d := dst.Field(i)
			d.SetUint(d.Uint() - src.Field(i).Uint())
		}
	}
}

// Table is a printable result table: one row per configuration point and
// one column per measured series, as the paper's figures plot them.
type Table struct {
	Title    string
	Columns  []string
	rows     []row
	warnings []string
}

type row struct {
	label string
	cells []float64
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a labelled row. The cell count must match the columns.
func (t *Table) AddRow(label string, cells ...float64) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("stats: row %q has %d cells, table has %d columns", label, len(cells), len(t.Columns)))
	}
	t.rows = append(t.rows, row{label: label, cells: cells})
}

// Rows returns the number of rows.
func (t *Table) Rows() int { return len(t.rows) }

// Cell returns the value at (rowLabel, column). It panics on unknown
// labels — tests use it to assert reproduced numbers.
func (t *Table) Cell(rowLabel, column string) float64 {
	ci := -1
	for i, c := range t.Columns {
		if c == column {
			ci = i
			break
		}
	}
	if ci < 0 {
		panic(fmt.Sprintf("stats: table %q has no column %q", t.Title, column))
	}
	for _, r := range t.rows {
		if r.label == rowLabel {
			return r.cells[ci]
		}
	}
	panic(fmt.Sprintf("stats: table %q has no row %q", t.Title, rowLabel))
}

// RowLabels returns the labels in insertion order.
func (t *Table) RowLabels() []string {
	out := make([]string, len(t.rows))
	for i, r := range t.rows {
		out[i] = r.label
	}
	return out
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	labelW := len("workload")
	for _, r := range t.rows {
		if len(r.label) > labelW {
			labelW = len(r.label)
		}
	}
	colW := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		colW[i] = len(c)
		if colW[i] < 8 {
			colW[i] = 8
		}
	}
	fmt.Fprintf(&b, "%-*s", labelW+2, "")
	for i, c := range t.Columns {
		fmt.Fprintf(&b, "%*s", colW[i]+2, c)
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		fmt.Fprintf(&b, "%-*s", labelW+2, r.label)
		for i, v := range r.cells {
			fmt.Fprintf(&b, "%*.*f", colW[i]+2, decimals(v), v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func decimals(v float64) int {
	av := v
	if av < 0 {
		av = -av
	}
	switch {
	case av >= 10000:
		return 0
	case av >= 10:
		return 1
	default:
		return 3
	}
}

// Normalize divides every cell of each row by the row's cell in the
// baseline column, producing the "normalized to X" presentation the
// paper's figures use. Rows whose baseline cell is 0 are skipped — a
// silent all-zero row would poison downstream shape checks — and each
// skip is recorded on the returned table's Warnings.
func (t *Table) Normalize(baseline string) *Table {
	out := NewTable(t.Title+" (normalized to "+baseline+")", t.Columns...)
	bi := -1
	for i, c := range t.Columns {
		if c == baseline {
			bi = i
			break
		}
	}
	if bi < 0 {
		panic(fmt.Sprintf("stats: no baseline column %q", baseline))
	}
	for _, r := range t.rows {
		base := r.cells[bi]
		if base == 0 {
			out.warnings = append(out.warnings,
				fmt.Sprintf("stats: row %q skipped: baseline %q is 0", r.label, baseline))
			continue
		}
		cells := make([]float64, len(r.cells))
		for i, v := range r.cells {
			cells[i] = v / base
		}
		out.AddRow(r.label, cells...)
	}
	return out
}

// Warnings returns the anomalies recorded while deriving this table
// (currently: rows Normalize skipped for a zero baseline).
func (t *Table) Warnings() []string { return t.warnings }

// tableJSON is the wire form of Table (rows are unexported).
type tableJSON struct {
	Title   string    `json:"title"`
	Columns []string  `json:"columns"`
	Rows    []rowJSON `json:"rows"`
}

type rowJSON struct {
	Label string    `json:"label"`
	Cells []float64 `json:"cells"`
}

// MarshalJSON encodes the table as {title, columns, rows:[{label,
// cells}]}, the machine-readable artifact format of supermem-bench
// -json.
func (t *Table) MarshalJSON() ([]byte, error) {
	out := tableJSON{Title: t.Title, Columns: t.Columns, Rows: make([]rowJSON, len(t.rows))}
	for i, r := range t.rows {
		out.Rows[i] = rowJSON{Label: r.label, Cells: r.cells}
	}
	return json.Marshal(out)
}

// UnmarshalJSON decodes the MarshalJSON form.
func (t *Table) UnmarshalJSON(data []byte) error {
	var in tableJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	*t = Table{Title: in.Title, Columns: in.Columns}
	for _, r := range in.Rows {
		if len(r.Cells) != len(in.Columns) {
			return fmt.Errorf("stats: row %q has %d cells, table has %d columns", r.Label, len(r.Cells), len(in.Columns))
		}
		t.AddRow(r.Label, r.Cells...)
	}
	return nil
}

// csvField quotes a field per RFC 4180 when it contains a comma, quote,
// or newline; other fields pass through unchanged.
func csvField(s string) string {
	if !strings.ContainsAny(s, ",\"\n\r") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// CSV renders the table as RFC 4180 comma-separated values with a
// header row, for plotting the figures outside Go. Labels and column
// headers containing commas or quotes are quoted.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString("label")
	for _, c := range t.Columns {
		b.WriteByte(',')
		b.WriteString(csvField(c))
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		b.WriteString(csvField(r.label))
		for _, v := range r.cells {
			fmt.Fprintf(&b, ",%g", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
