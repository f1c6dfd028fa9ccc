// Command supermem-trace records, inspects, and replays the memory-op
// traces the workloads generate.
//
// Usage:
//
//	supermem-trace record -workload btree -tx 1024 -transactions 100 -o btree.trace
//	supermem-trace info btree.trace
//	supermem-trace dump btree.trace | head        # text form
//	supermem-trace replay -scheme SuperMem btree.trace
//	supermem-trace replay -hist -events t.json btree.trace
//	supermem-trace events t.json                  # validate a trace_event file
//
// Traces are scheme-independent (they capture the program's memory
// behaviour); replay chooses the secure-NVM design to time them under.
// With -events, replay additionally captures a Chrome trace_event JSON
// timeline (Perfetto-openable); the events subcommand validates such a
// file (from replay or supermem-bench -events) and exits non-zero if it
// is malformed or empty.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"supermem/internal/bench"
	"supermem/internal/config"
	"supermem/internal/core"
	"supermem/internal/obs"
	"supermem/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "record":
		record(os.Args[2:])
	case "info":
		info(os.Args[2:])
	case "dump":
		dump(os.Args[2:])
	case "replay":
		replay(os.Args[2:])
	case "events":
		events(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: supermem-trace {record|info|dump|replay|events} [flags] [file]")
	os.Exit(2)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "supermem-trace:", err)
	os.Exit(1)
}

func record(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	wl := fs.String("workload", "array", "workload name")
	tx := fs.Int("tx", 1024, "transaction request size in bytes")
	txs := fs.Int("transactions", 100, "measured transactions")
	warm := fs.Int("warmup", 1, "warmup transactions")
	seed := fs.Int64("seed", 1, "workload seed")
	out := fs.String("o", "", "output file (binary trace)")
	fs.Parse(args)
	if *out == "" {
		fail(fmt.Errorf("record: -o output file required"))
	}
	streams, err := bench.BuildSources(bench.Spec{
		Base:           config.Default(),
		Workload:       *wl,
		Scheme:         config.SuperMem, // irrelevant to the op stream
		TxBytes:        *tx,
		Transactions:   *txs,
		Warmup:         *warm,
		Cores:          1,
		FootprintBytes: 8 << 20,
		Seed:           *seed,
	})
	if err != nil {
		fail(err)
	}
	ops := streams[0]
	f, err := os.Create(*out)
	if err != nil {
		fail(err)
	}
	defer f.Close()
	if err := trace.WriteBinary(f, ops); err != nil {
		fail(err)
	}
	fmt.Printf("wrote %d ops to %s\n", len(ops), *out)
}

func load(path string) trace.Stream {
	f, err := os.Open(path)
	if err != nil {
		fail(err)
	}
	defer f.Close()
	ops, err := trace.ReadBinary(f)
	if err != nil {
		fail(err)
	}
	return ops
}

func info(args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	ops := load(fs.Arg(0))
	var counts [8]int
	lines := map[uint64]bool{}
	for i := range ops {
		op := ops.At(i)
		counts[op.Kind]++
		switch op.Kind {
		case trace.Read, trace.Write, trace.Flush:
			lines[op.Addr/64] = true
		}
	}
	fmt.Printf("%d ops: %d reads, %d writes, %d flushes, %d fences, %d compute, %d tx, %d distinct lines\n",
		len(ops), counts[trace.Read], counts[trace.Write], counts[trace.Flush],
		counts[trace.Fence], counts[trace.Compute], counts[trace.TxBegin], len(lines))
}

func dump(args []string) {
	fs := flag.NewFlagSet("dump", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	if err := trace.WriteText(os.Stdout, load(fs.Arg(0))); err != nil {
		fail(err)
	}
}

func replay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	schemeName := fs.String("scheme", "SuperMem", "scheme to time the trace under")
	eventsOut := fs.String("events", "", "write a Chrome trace_event JSON capture of the replay")
	eventsMax := fs.Int("events-max", 1<<20, "trace event buffer cap")
	hist := fs.Bool("hist", false, "print latency histograms (p50/p95/p99)")
	obsWindow := fs.Uint64("obs-window", 0, "observability series window in cycles (0 = default 4096)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	var scheme config.Scheme
	found := false
	for _, s := range config.AllSchemes() {
		if s.String() == *schemeName {
			scheme, found = s, true
		}
	}
	if !found {
		fail(fmt.Errorf("unknown scheme %q", *schemeName))
	}
	ops := load(fs.Arg(0))
	cfg := config.Default()
	cfg.Scheme = scheme
	sys, err := core.NewSystem(cfg)
	if err != nil {
		fail(err)
	}
	var rec *obs.Recorder
	if *eventsOut != "" || *hist {
		rec = obs.NewRecorder(obs.Options{Window: *obsWindow, Trace: *eventsOut != "", MaxTraceEvents: *eventsMax})
		sys.SetRecorder(rec)
	}
	m, err := sys.Run([]trace.Source{ops.Source()})
	if err != nil {
		fail(err)
	}
	fmt.Printf("scheme=%s cycles=%d txs=%d avgTx=%.0f writes=%d (data %d + counter %d, %d coalesced) reads=%d ctrHit=%.3f\n",
		scheme, m.Cycles, m.Transactions, m.AvgTxCycles(),
		m.TotalNVMWrites(), m.DataWrites, m.CounterWrites, m.CoalescedWrites,
		m.NVMReads, m.CtrCacheHitRate())
	if *hist {
		fmt.Print(rec.Snapshot())
	}
	if *eventsOut != "" {
		f, err := os.Create(*eventsOut)
		if err != nil {
			fail(err)
		}
		name := fmt.Sprintf("replay %s (%s)", fs.Arg(0), scheme)
		if err := obs.WriteTrace(f, obs.TraceSection{PID: 1, Name: name, Rec: rec}); err != nil {
			f.Close()
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		kept, dropped := rec.TraceStats()
		fmt.Printf("wrote %s: %d events (%d dropped); open at ui.perfetto.dev\n", *eventsOut, kept, dropped)
	}
}

// events validates a trace_event JSON file and summarises it; a
// malformed or empty trace exits non-zero, so CI can gate on it.
func events(args []string) {
	fs := flag.NewFlagSet("events", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		fail(err)
	}
	defer f.Close()
	sum, err := obs.ReadTraceSummary(f)
	if err != nil {
		fail(err)
	}
	fmt.Printf("%s: %d events (%d spans, %d instants, %d counter samples, %d metadata)\n",
		fs.Arg(0), sum.Events, sum.Spans, sum.Instants, sum.Counters, sum.Meta)
	names := make([]string, 0, len(sum.ByName))
	for n := range sum.ByName {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %7d  %s\n", sum.ByName[n], n)
	}
	if sum.Spans+sum.Instants+sum.Counters == 0 {
		fail(fmt.Errorf("%s: trace has no events", fs.Arg(0)))
	}
}
