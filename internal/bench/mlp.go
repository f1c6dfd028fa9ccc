package bench

import (
	"flag"
	"fmt"
	"slices"
	"strings"

	"supermem/internal/config"
)

// MLPOpts sizes the memory-level-parallelism experiment grid. Zero
// fields take defaults, so MLPOpts{} is the standard run.
type MLPOpts struct {
	// Schemes lists the secure-NVM designs per core variant; Unsec is
	// always run too (it is the write-amplification baseline). Default
	// {WT, SuperMem, Osiris, BMT}.
	Schemes []config.Scheme
	// Widths lists the OoO issue-window widths to sweep (MSHR file and
	// prefetcher at config defaults); default {1, 2, 4, 8}.
	Widths []int
	// MSHRs lists extra MSHR-file sizes swept at the widest width;
	// default {2, 32} (the width axis already covers the default size).
	MSHRs []int
	// PrefetchDegrees lists stride-prefetcher degrees swept at the
	// widest width; default {4} (degree 0 is the width axis itself).
	PrefetchDegrees []int
	// Workload is the op stream; default "btree" (pointer chasing, the
	// read-latency-bound case MLP helps most).
	Workload string
	// TxBytes is the transaction request size; default 1024.
	TxBytes int
}

func (mo MLPOpts) withDefaults() MLPOpts {
	if len(mo.Schemes) == 0 {
		mo.Schemes = []config.Scheme{config.WT, config.SuperMem, config.Osiris, config.BMT}
	}
	if len(mo.Widths) == 0 {
		mo.Widths = []int{1, 2, 4, 8}
	}
	if len(mo.MSHRs) == 0 {
		mo.MSHRs = []int{2, 32}
	}
	if mo.PrefetchDegrees == nil {
		mo.PrefetchDegrees = []int{4}
	}
	if mo.Workload == "" {
		mo.Workload = "btree"
	}
	if mo.TxBytes == 0 {
		mo.TxBytes = 1024
	}
	return mo
}

// coreVariant is one point on the grid's core-model axis.
type coreVariant struct {
	model        string
	width, mshrs int
	degree       int
}

// variants expands the option lists into the core-model axis: the
// in-order baseline, the width sweep, and — at the widest width — the
// MSHR and prefetch sweeps.
func (mo MLPOpts) variants() []coreVariant {
	vs := []coreVariant{{model: config.CoreInOrder}}
	for _, w := range mo.Widths {
		vs = append(vs, coreVariant{model: config.CoreOoO, width: w})
	}
	maxW := slices.Max(mo.Widths)
	for _, m := range mo.MSHRs {
		if m == config.DefaultMSHREntries {
			continue // the width axis already ran this point
		}
		vs = append(vs, coreVariant{model: config.CoreOoO, width: maxW, mshrs: m})
	}
	for _, d := range mo.PrefetchDegrees {
		if d <= 0 {
			continue
		}
		vs = append(vs, coreVariant{model: config.CoreOoO, width: maxW, degree: d})
	}
	return vs
}

// MLPCell is one grid point: a (core variant, scheme) pair. Latencies
// come from the cell's tx-latency histogram.
type MLPCell struct {
	Scheme string `json:"scheme"`
	Model  string `json:"model"`
	// Width/MSHRs/Prefetch describe the OoO variant (0 means the config
	// default; all zero for the in-order model).
	Width    int `json:"width,omitempty"`
	MSHRs    int `json:"mshrs,omitempty"`
	Prefetch int `json:"prefetch,omitempty"`
	// Transactions is the measured transaction count.
	Transactions uint64 `json:"transactions"`
	// AvgCycles is the mean transaction latency; P50/P95/P99 are
	// distribution quantiles.
	AvgCycles float64 `json:"avg_cycles"`
	P50       uint64  `json:"p50"`
	P95       uint64  `json:"p95"`
	P99       uint64  `json:"p99"`
	// NVMWrites is the total NVM write count (data + counter + tree);
	// WriteAmp normalizes it to the same core variant's Unsec run — the
	// write amplification the scheme adds, per MLP point.
	NVMWrites uint64  `json:"nvm_writes"`
	WriteAmp  float64 `json:"write_amp"`
	// ReadStallCycles is the aggregate demand-read stall.
	ReadStallCycles uint64 `json:"read_stall_cycles"`
	// MSHR and prefetcher behavior (zero for the in-order model).
	MSHRMerges      uint64 `json:"mshr_merges,omitempty"`
	MSHRFullStalls  uint64 `json:"mshr_full_stalls,omitempty"`
	PrefetchIssued  uint64 `json:"prefetch_issued,omitempty"`
	PrefetchUseful  uint64 `json:"prefetch_useful,omitempty"`
	PrefetchDropped uint64 `json:"prefetch_dropped,omitempty"`
	// CtrHitRate is the counter-cache hit rate (0 for unencrypted).
	CtrHitRate float64 `json:"ctr_hit_rate"`
}

// MLPResult is the MLP experiment's artifact payload. It carries no
// wall-time or parallelism fields: the same options produce a
// byte-identical BENCH_mlp.json at any -parallel setting.
type MLPResult struct {
	Workload     string    `json:"workload"`
	TxBytes      int       `json:"tx_bytes"`
	Transactions int       `json:"transactions"`
	Cells        []MLPCell `json:"cells"`
}

// mlpExperiment is the registry entry with its -mlp-* flags.
func mlpExperiment() Experiment {
	var mo MLPOpts
	return Experiment{
		Name: "mlp",
		Flags: func(fs *flag.FlagSet) {
			fs.Func("mlp-widths", "comma-separated OoO widths for -exp mlp (default 1,2,4,8)", listFlag(&mo.Widths, atLeast(1)))
			fs.Func("mlp-mshrs", "comma-separated MSHR-file sizes swept at the widest width for -exp mlp (default 2,32)", listFlag(&mo.MSHRs, atLeast(1)))
			fs.Func("mlp-prefetch", "comma-separated prefetch degrees swept at the widest width for -exp mlp (default 4)", listFlag(&mo.PrefetchDegrees, atLeast(0)))
			fs.StringVar(&mo.Workload, "mlp-workload", "", "workload for -exp mlp (default btree)")
			fs.IntVar(&mo.TxBytes, "mlp-tx", 0, "transaction size in bytes for -exp mlp (default 1024)")
		},
		Run: func(cfg config.Config, o Opts) (Result, error) { return MLP(cfg, o, mo) },
	}
}

// MLP runs the memory-level-parallelism grid: core variants (in-order,
// OoO width sweep, MSHR sweep, prefetch on) crossed with schemes, with
// Unsec run per variant as the amplification baseline. Every cell of a
// variant replays one cached recording — the core model is timing-only,
// so the whole grid shares a single trace.
func MLP(base config.Config, o Opts, mo MLPOpts) (*MLPResult, error) {
	mo = mo.withDefaults()
	vs := mo.variants()
	schemes := append([]config.Scheme{config.Unsec}, mo.Schemes...)

	// The grid owns the core-model axis: each variant sets every model
	// knob on its template, so the in-order baseline is really in-order
	// and every OoO variant sizes exactly the knobs it sweeps.
	var cells []Spec
	for _, v := range vs {
		cfg := base
		cfg.CoreModel = v.model
		cfg.CoreModels = [4]string{}
		cfg.OoOWidth = v.width
		cfg.MSHREntries = v.mshrs
		cfg.PrefetchDegree = v.degree
		for _, sch := range schemes {
			cells = append(cells, o.spec(cfg, mo.Workload, sch, mo.TxBytes, 1))
		}
	}

	// The experiment reads the tx-latency histograms, so it observes
	// every cell.
	ms, recs, err := o.runCells(cells, true)
	if err != nil {
		return nil, fmt.Errorf("mlp: %w", err)
	}

	res := &MLPResult{Workload: mo.Workload, TxBytes: mo.TxBytes, Transactions: o.Transactions}
	i := 0
	for _, v := range vs {
		var unsecWrites uint64
		for _, sch := range schemes {
			m := ms[i]
			h := recs[i].CoreTxHist(0)
			i++
			if sch == config.Unsec {
				unsecWrites = m.TotalNVMWrites()
			}
			amp := 0.0
			if unsecWrites > 0 {
				amp = float64(m.TotalNVMWrites()) / float64(unsecWrites)
			}
			cell := MLPCell{
				Scheme:          sch.String(),
				Model:           v.model,
				Width:           v.width,
				MSHRs:           v.mshrs,
				Prefetch:        v.degree,
				Transactions:    m.Transactions,
				AvgCycles:       m.AvgTxCycles(),
				NVMWrites:       m.TotalNVMWrites(),
				WriteAmp:        amp,
				ReadStallCycles: m.ReadStallCycles,
				MSHRMerges:      m.MSHRMerges,
				MSHRFullStalls:  m.MSHRFullStalls,
				PrefetchIssued:  m.PrefetchIssued,
				PrefetchUseful:  m.PrefetchUseful,
				PrefetchDropped: m.PrefetchDropped,
				CtrHitRate:      m.CtrCacheHitRate(),
			}
			if h != nil {
				cell.P50 = h.Quantile(0.50)
				cell.P95 = h.Quantile(0.95)
				cell.P99 = h.Quantile(0.99)
			}
			res.Cells = append(res.Cells, cell)
		}
	}
	return res, nil
}

// StrictViolations is empty: the MLP grid is reported, not gated.
func (*MLPResult) StrictViolations() []string { return nil }

// variantLabel renders one core variant compactly for the table.
func variantLabel(model string, width, mshrs, degree int) string {
	if model != config.CoreOoO {
		return "inorder"
	}
	l := fmt.Sprintf("ooo/w%d", width)
	if mshrs > 0 {
		l += fmt.Sprintf("/m%d", mshrs)
	}
	if degree > 0 {
		l += fmt.Sprintf("/pf%d", degree)
	}
	return l
}

// String renders the result as an aligned table.
func (r *MLPResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "MLP sweep: %s workload, tx=%dB, %d transactions (latencies in cycles)\n",
		r.Workload, r.TxBytes, r.Transactions)
	fmt.Fprintf(&b, "%-14s %-10s %10s %8s %8s %8s %6s %8s %8s %8s %7s\n",
		"core", "scheme", "avg", "p50", "p99", "writes", "amp", "merges", "pf-use", "pf-drop", "ctr-hit")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "%-14s %-10s %10.1f %8d %8d %8d %6.2f %8d %8d %8d %7.3f\n",
			variantLabel(c.Model, c.Width, c.MSHRs, c.Prefetch), c.Scheme,
			c.AvgCycles, c.P50, c.P99, c.NVMWrites, c.WriteAmp,
			c.MSHRMerges, c.PrefetchUseful, c.PrefetchDropped, c.CtrHitRate)
	}
	return b.String()
}
