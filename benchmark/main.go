// Command benchmark measures the simulator's host speed and memory on
// four fixed workloads, and checks every simulated result it produces.
//
// Run it from the repository root through benchmark/run.sh, which
// builds it first:
//
//	bash benchmark/run.sh --workload paper-1c --seed 1 --seconds 10 --trace 0
//
// One run sets the workload up afresh several times, then runs
// whole passes over the workload's cells, one after another on one
// worker, each followed by more set-ups, until --seconds have passed. The last line of standard output
// is a JSON object: the end-to-end metrics with --trace 0, the per-layer
// metrics of a traced run with --trace 1. See README.md.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// A run times set-up in rounds: the workload set up afresh at least
// setupRoundReps times and, in the benchmark proper, for at least
// setupRoundTime in total. setup_s is the median over rounds of each
// round's fastest set-up.
const (
	setupRoundReps = 3
	setupRoundTime = 250 * time.Millisecond
)

func main() {
	var (
		name     = flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
		seed     = flag.Int64("seed", 1, "workload seed; seeds 1 and 2 have golden outputs")
		seconds  = flag.Float64("seconds", 10, "length of the measured phase in host seconds")
		traced   = flag.Int("trace", 0, "0: print end-to-end metrics; 1: record spans and print per-layer metrics")
		traceOut = flag.String("trace-out", "", "with --trace 1, also write the spans to this file as trace_event JSON")
		repeatN  = flag.Int("repeat", 0, "run --workload (default: all) this many times, seeds --seed onward, each in a fresh process, and report each end-to-end metric's spread")
		baseline = flag.String("baseline", "", "with --repeat, also compare the medians with the ones recorded in this file")
		golden   = flag.Bool("write-golden", false, "rewrite benchmark/golden for seeds 1 and 2 (run from the repository root)")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	switch {
	case *golden:
		if err := writeGolden("benchmark/golden", fullSize); err != nil {
			fatal(err)
		}
	case *repeatN > 0:
		os.Exit(repeat(*name, *seed, *seconds, *repeatN, *baseline))
	default:
		// One P: the cells run on one worker, and the garbage collector
		// shares its core. With the default of two on a 2-core host,
		// crash-fuzz ran slower and less steadily (2849-3230 op/s over
		// 4 runs, against 3890-4038 op/s with one), as the collector
		// then runs concurrently on the second core.
		runtime.GOMAXPROCS(1)
		res, err := measure(options{workload: *name, seed: *seed, seconds: *seconds, traced: *traced == 1, size: fullSize, setupRound: setupRoundTime}, os.Stderr)
		if err != nil {
			fatal(err)
		}
		if *traceOut != "" && res.spans != nil {
			if err := writeTrace(*traceOut, res.spans, res.cellNames); err != nil {
				fatal(err)
			}
		}
		line, err := json.Marshal(res.report)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	size     sizing
	// setupRound is the least total time of one round of set-ups.
	setupRound time.Duration
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	report report
	// outputs is each cell's output in the first pass.
	outputs [][]byte
	// spans and cellNames are the traced run's record (nil untraced).
	spans     []span
	cellNames map[int]string
}

// passStat is what one pass over the cells cost.
type passStat struct {
	traced bool
	dur    time.Duration
	rt     runtimeDelta
}

// passTotals sums one pass's cell results. Every pass computes the same
// cells, so the simulated statistics are exact: a change that only
// speeds up the host leaves them alone.
type passTotals struct {
	work                                 int64
	cycles, txCycles, transactions       uint64
	dataWrites, counterWrites, coalesced uint64
	wqStall, ctrHits, ctrMisses          uint64
	nvmReads, mshrMerges, bankServices   uint64
	bankBusy                             []uint64
	// points, nested and probes sum the crash-fuzz cells.
	points, nested, probes int64
}

func (t *passTotals) add(c cell) {
	t.work += c.work
	t.points += c.points
	t.nested += c.nested
	t.probes += c.probes
	m := c.m
	t.cycles += m.Cycles
	t.txCycles += m.TxCycles
	t.transactions += m.Transactions
	t.dataWrites += m.DataWrites
	t.counterWrites += m.CounterWrites
	t.coalesced += m.CoalescedWrites
	t.wqStall += m.WQStallCycles
	t.ctrHits += m.CtrCacheHits
	t.ctrMisses += m.CtrCacheMisses
	t.nvmReads += m.NVMReads
	t.mshrMerges += m.MSHRMerges
	for b, bs := range c.banks {
		if b >= len(t.bankBusy) {
			t.bankBusy = append(t.bankBusy, make([]uint64, b+1-len(t.bankBusy))...)
		}
		t.bankBusy[b] += bs.BusyCycles
		t.bankServices += bs.Reads + bs.Writes
	}
}

// runtimeDelta is the Go runtime's work over an interval.
type runtimeDelta struct {
	gcCycles            uint64
	gcCPU               float64
	allocBytes, mallocs uint64
}

var runtimeSamples = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

func readRuntime() runtimeDelta {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeDelta{s[0].Value.Uint64(), s[1].Value.Float64(), s[2].Value.Uint64(), s[3].Value.Uint64()}
}

func (d runtimeDelta) since(start runtimeDelta) runtimeDelta {
	return runtimeDelta{d.gcCycles - start.gcCycles, d.gcCPU - start.gcCPU, d.allocBytes - start.allocBytes, d.mallocs - start.mallocs}
}

// cellRecord is what a run learned about one cell.
type cellRecord struct {
	name string
	runs int
	// first is the first successful run and output its pinned output;
	// output stays nil until a run succeeds.
	first  cell
	output []byte
	// fastest is the fastest untraced run.
	fastest time.Duration
	// failed counts failed runs; why is the first reason.
	failed int
	why    string
}

// fail marks runs more of the cell's runs failed.
func (c *cellRecord) fail(runs int, why string) {
	if c.failed == 0 {
		c.why = why
	}
	c.failed = min(c.failed+runs, c.runs)
}

// measure runs one workload: a round of set-ups, then whole passes
// over the cells until o.seconds have passed, then the output checks.
func measure(o options, log io.Writer) (*result, error) {
	s, err := newSuite(o.workload, o.seed, o.size)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if o.traced {
		tr = newTracer()
	}
	root := tr.begin(o.workload, catWorkload)
	setupS, st, err := setUp(s, tr, o.setupRound)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", o.workload, err)
	}
	rounds := [][]float64{setupS}
	runtime.GC()
	liveHeap := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(liveHeap)

	cells := make([]cellRecord, len(s.cells()))
	for i, name := range s.cells() {
		cells[i].name = name
	}
	res := &result{cellNames: map[int]string{}}
	// An untraced run sets up again after every pass, so that set-up,
	// like the cells, is timed across the whole run.
	var between func() error
	if tr == nil {
		between = func() error {
			times, _, err := setUp(s, nil, o.setupRound)
			if err != nil {
				return fmt.Errorf("%s: set-up: %w", o.workload, err)
			}
			rounds = append(rounds, times)
			return nil
		}
	}
	id := tr.begin("measure", catPhase)
	passes, err := runPasses(s, tr, cells, o.seconds, res.cellNames, between)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("check", catPhase)
	check, err := checkCells(s, cells, o)
	tr.end(id)
	tr.end(root)
	if err != nil {
		return nil, err
	}

	var work int64
	var best time.Duration
	var failing []string
	for _, c := range cells {
		res.outputs = append(res.outputs, c.output)
		res.report.Attempted += c.runs
		res.report.Failed += c.failed
		if c.failed > 0 {
			failing = append(failing, fmt.Sprintf("  FAIL %s: %s", c.name, c.why))
		}
		if c.fastest > 0 {
			work += c.first.work
			best += c.fastest
		}
	}
	res.report.Correct = res.report.Failed == 0
	fmt.Fprintf(log, "%s seed %d: %d cells/pass, %d passes, check=%s, %d of %d cell runs failed\n",
		o.workload, o.seed, len(cells), len(passes), check, res.report.Failed, res.report.Attempted)
	roundFastest := make([]float64, len(rounds))
	var all []float64
	for i, r := range rounds {
		roundFastest[i] = slices.Min(r)
		all = append(all, r...)
	}
	slices.Sort(all)
	fmt.Fprintf(log, "set-up: %d rounds, %d set-ups, median round fastest %.4f s, median %.4f s, range %.4f-%.4f s\npass s: %.4f\n",
		len(rounds), len(all), median(roundFastest), median(all), all[0], all[len(all)-1], passSeconds(passes))
	if len(failing) > 10 {
		failing = append(failing[:10], fmt.Sprintf("  ... and %d more failing cells", len(failing)-10))
	}
	for _, f := range failing {
		fmt.Fprintln(log, f)
	}

	if tr == nil {
		res.report.Metrics = map[string]metric{
			// A cell's fastest run is its cost with the host's slow
			// spells filtered out. Over 6 runs of paper-1c seed 1 on a
			// shared 2-core host, the median pass gave 3.45-4.18 Mop/s,
			// the sum of fastest runs 4.33-4.54 Mop/s.
			"ops_per_s": {ratio(float64(work), best.Seconds()), "op/s"},
			// Set-up the same way: a round's fastest set-up is its cost
			// outside slow spells. Over 8 runs of crash-fuzz, the
			// median set-up of one 1 s round gave 7.4-10.5 ms, its
			// fastest 7.0-7.5 ms.
			"setup_s":      {median(roundFastest), "s"},
			"live_heap_mb": {float64(liveHeap[0].Value.Uint64()) / mb, "MB"},
		}
		return res, nil
	}
	res.spans = tr.spans
	printLayerTable(log, tr.spans)
	untraced, traced := splitPasses(passes)
	withTrace, without := median(passSeconds(traced)), median(passSeconds(untraced[1:]))
	fmt.Fprintf(log, "tracing overhead: %+.6f s per pass (median traced pass %.6f s, untraced %.6f s, first pass excluded)\n",
		withTrace-without, withTrace, without)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	var pass passTotals
	for _, c := range cells {
		pass.add(c.first)
	}
	res.report.Metrics = layerMetrics(tr.spans, traced, pass, st, len(setupS), rss)
	return res, nil
}

// setUp runs one round of set-ups: the suite set up afresh at least
// setupRoundReps times and for at least minTotal. It returns each
// set-up's host seconds.
func setUp(s suite, tr *tracer, minTotal time.Duration) ([]float64, setupStat, error) {
	var times []float64
	var total time.Duration
	var st setupStat
	for len(times) < setupRoundReps || total < minTotal {
		runtime.GC()
		id := tr.begin("setup", catPhase)
		t0 := time.Now()
		var err error
		st, err = s.setup(tr)
		d := time.Since(t0)
		tr.end(id)
		if err != nil {
			return nil, st, err
		}
		times = append(times, d.Seconds())
		total += d
	}
	return times, st, nil
}

// runPasses runs whole passes over the cells until seconds have passed.
// A traced run alternates untraced and traced passes, starting
// untraced, and runs at least three, so that the difference between
// the traced and the untraced medians after the first pass, which warms
// the process up, is the tracing overhead. between, if not nil, runs
// after every pass.
func runPasses(s suite, tr *tracer, cells []cellRecord, seconds float64, cellNames map[int]string, between func() error) ([]passStat, error) {
	var passes []passStat
	start := time.Now()
	for p := 0; ; p++ {
		var ptr *tracer
		passName := "pass"
		if tr != nil {
			if p%2 == 1 {
				ptr = tr
			} else {
				passName = "pass.untraced"
			}
		}
		pid := tr.begin(passName, catPass)
		ps := passStat{traced: ptr != nil}
		rt0 := readRuntime()
		t0 := time.Now()
		for i := range cells {
			rec := &cells[i]
			cid := ptr.begin("cell", catCell)
			c0 := time.Now()
			c, err := s.run(i, ptr)
			d := time.Since(c0)
			ptr.end(cid)
			if ptr != nil {
				cellNames[cid] = rec.name
			}
			rec.runs++
			if err != nil {
				rec.fail(1, err.Error())
				continue
			}
			out, err := json.Marshal(c.out)
			if err != nil {
				return nil, err
			}
			if rec.output == nil {
				rec.output, rec.first = out, c
			} else if !bytes.Equal(out, rec.output) {
				rec.fail(1, "output differs from the same cell's first run")
			}
			if ptr == nil && (rec.fastest == 0 || d < rec.fastest) {
				rec.fastest = d
			}
		}
		ps.dur = time.Since(t0)
		ps.rt = readRuntime().since(rt0)
		tr.end(pid)
		passes = append(passes, ps)
		if between != nil {
			if err := between(); err != nil {
				return nil, err
			}
		}
		if time.Since(start).Seconds() >= seconds && (tr == nil || p >= 2) {
			return passes, nil
		}
	}
}

// checkCells runs the suite's invariant checks on each cell's output
// and, at the benchmark's sizing, compares it with the seed's golden
// file if there is one. A failed check fails every run of the cell. It
// returns "golden" or "unverified".
func checkCells(s suite, cells []cellRecord, o options) (string, error) {
	for i := range cells {
		c := &cells[i]
		if c.output == nil {
			continue
		}
		if err := s.check(i, c.first); err != nil {
			c.fail(c.runs, err.Error())
		}
	}
	if o.size != fullSize {
		return "unverified", nil
	}
	golden, err := loadGolden(o.workload, o.seed, o.size)
	if err != nil || golden == nil {
		return "unverified", err
	}
	for i := range cells {
		c := &cells[i]
		want, ok := golden[c.name]
		if !ok {
			c.fail(c.runs, "no golden output")
		} else if c.output != nil && !bytes.Equal(c.output, want) {
			c.fail(c.runs, "output differs from golden")
		}
	}
	return "golden", nil
}

func splitPasses(passes []passStat) (untraced, traced []passStat) {
	for _, p := range passes {
		if p.traced {
			traced = append(traced, p)
		} else {
			untraced = append(untraced, p)
		}
	}
	return untraced, traced
}

func passSeconds(passes []passStat) []float64 {
	out := make([]float64, len(passes))
	for i, p := range passes {
		out[i] = p.dur.Seconds()
	}
	return out
}

const mb = 1 << 20

// layerMetrics derives the per-layer metrics from the traced passes,
// the totals of one pass and the set-up spans. Counts are per pass.
func layerMetrics(spans []span, passes []passStat, pass passTotals, st setupStat, setupReps int, peakRSS float64) map[string]metric {
	busy := map[string]float64{}
	mallocs := map[string]uint64{}
	allocBytes := map[string]uint64{}
	for _, s := range spans {
		busy[s.name] += s.dur().Seconds()
		mallocs[s.name] += s.mallocs
		allocBytes[s.name] += s.allocBytes
	}
	var rt runtimeDelta
	var wall float64
	for _, ps := range passes {
		wall += ps.dur.Seconds()
		rt.gcCycles += ps.rt.gcCycles
		rt.gcCPU += ps.rt.gcCPU
		rt.allocBytes += ps.rt.allocBytes
		rt.mallocs += ps.rt.mallocs
	}
	n, reps := float64(len(passes)), float64(setupReps)
	work := float64(pass.work) * n
	cells := durations(spans, "cell")
	var maxBusy, sumBusy uint64
	for _, b := range pass.bankBusy {
		maxBusy = max(maxBusy, b)
		sumBusy += b
	}
	return map[string]metric{
		"tracegen.mops_per_s":      {ratio(float64(st.ops)*reps, busy["tracegen"]) / 1e6, "Mop/s"},
		"tracegen.ops":             {float64(st.ops), "count"},
		"tracegen.warmup_op_share": {100 * ratio(float64(st.warmupOps), float64(st.ops)), "%"},
		"tracegen.alloc_mb":        {float64(allocBytes["tracegen"]) / reps / mb, "MB"},
		"tracegen.mallocs":         {float64(mallocs["tracegen"]) / reps, "count"},

		"core.run_mops_per_s":     {ratio(work, busy["core.run"]) / 1e6, "Mop/s"},
		"core.nvm_services_per_s": {ratio(float64(pass.bankServices)*n, busy["core.run"]), "1/s"},
		"core.new_share":          {100 * ratio(busy["core.new"], busy["cell"]), "%"},
		"core.allocs_per_op":      {ratio(float64(mallocs["core.run"]), work), "count"},
		"cell.p50_ms":             {1e3 * quantile(cells, 0.50), "ms"},
		"cell.p90_ms":             {1e3 * quantile(cells, 0.90), "ms"},

		"crash.points_per_s":    {ratio(float64(pass.points+pass.nested)*n, busy["crash.fuzz"]), "1/s"},
		"crash.points":          {float64(pass.points), "count"},
		"crash.nested_points":   {float64(pass.nested), "count"},
		"crash.recovery_probes": {float64(pass.probes), "count"},

		"runtime.gc_cycles":    {float64(rt.gcCycles) / n, "count"},
		"runtime.gc_cpu_share": {100 * ratio(rt.gcCPU, wall), "%"},
		"runtime.alloc_mb":     {float64(rt.allocBytes) / n / mb, "MB"},
		"runtime.mallocs":      {float64(rt.mallocs) / n, "count"},
		"runtime.peak_rss_mb":  {peakRSS, "MB"},

		"sim.cycles":               {float64(pass.cycles), "cycles"},
		"sim.tx_cycles_avg":        {ratio(float64(pass.txCycles), float64(pass.transactions)), "cycles"},
		"memctrl.data_writes":      {float64(pass.dataWrites), "count"},
		"memctrl.counter_writes":   {float64(pass.counterWrites), "count"},
		"memctrl.coalesced_writes": {float64(pass.coalesced), "count"},
		"memctrl.wq_stall_cycles":  {float64(pass.wqStall), "cycles"},
		"cache.ctr_hit_rate":       {100 * ratio(float64(pass.ctrHits), float64(pass.ctrHits+pass.ctrMisses)), "%"},
		"nvm.reads":                {float64(pass.nvmReads), "count"},
		"nvm.bank_services":        {float64(pass.bankServices), "count"},
		"nvm.max_bank_busy_share":  {100 * ratio(float64(maxBusy), float64(sumBusy)), "%"},
		"core.mshr_merges":         {float64(pass.mshrMerges), "count"},
	}
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not run).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median of xs; 0 for none.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quantile of sorted xs by linear interpolation; 0 for none.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
