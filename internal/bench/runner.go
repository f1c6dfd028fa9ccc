package bench

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"

	"supermem/internal/core"
	"supermem/internal/obs"
	"supermem/internal/par"
	"supermem/internal/stats"
	"supermem/internal/trace"
)

// Runner executes a slice of independent simulation cells across a
// worker pool. Each cell builds (or replays from the trace cache) its
// op streams and runs a fresh core.System, so cells share no mutable
// state and the aggregated results are byte-identical to a serial run.
type Runner struct {
	// Parallel is the worker count; <= 0 means GOMAXPROCS.
	Parallel int
	// Obs, if non-nil, attaches a per-cell observability recorder to
	// every simulation and collects the results. Recorders are created
	// and collected in cell order, so the captured histograms and trace
	// events are independent of worker scheduling.
	Obs *ObsCollector

	cache *TraceCache
}

// NewRunner returns a runner with the given worker count (<= 0 means
// GOMAXPROCS) and a fresh trace cache.
func NewRunner(parallel int) *Runner {
	return &Runner{Parallel: parallel, cache: NewTraceCache()}
}

// CacheStats reports this runner's trace cache hit/miss counts.
func (r *Runner) CacheStats() (hits, misses int64) { return r.cache.Stats() }

// RunCells executes every cell (one simulation spec each) and returns
// the metrics in cell order. Workers run concurrently, but the returned
// slice (and therefore any table assembled from it) is independent of
// scheduling. On failure the lowest-index error is returned, so errors
// are deterministic too.
func (r *Runner) RunCells(cells []Spec) ([]stats.Metrics, error) {
	var (
		recs     []*obs.Recorder
		captures []CellObs
	)
	if r.Obs != nil {
		recs = make([]*obs.Recorder, len(cells))
		captures = make([]CellObs, len(cells))
		for i, s := range cells {
			label := cellLabel(s)
			recs[i] = r.Obs.newRecorder(label)
			captures[i] = CellObs{Label: label, TxBytes: s.TxBytes, WriteQueue: s.Base.WriteQueueEntries, Rec: recs[i]}
		}
	}
	out, err := r.run(cells, recs)
	if err != nil {
		return nil, err
	}
	if r.Obs != nil {
		r.Obs.collect(captures)
	}
	return out, nil
}

// RunObserved is RunCells with a histogram recorder on every cell,
// returned in cell order, for experiments that read their quantiles
// from the recorders. It ignores r.Obs.
func (r *Runner) RunObserved(cells []Spec) ([]stats.Metrics, []*obs.Recorder, error) {
	recs := make([]*obs.Recorder, len(cells))
	for i := range recs {
		recs[i] = obs.NewRecorder(obs.Options{})
	}
	out, err := r.run(cells, recs)
	return out, recs, err
}

// run executes the cells, attaching recs[i] (if recs is non-nil) to
// cell i.
func (r *Runner) run(cells []Spec, recs []*obs.Recorder) ([]stats.Metrics, error) {
	r.cache.Plan(cells)
	out := make([]stats.Metrics, len(cells))
	err := par.ForEachIndex(r.Parallel, len(cells), func(i int) error {
		var rec *obs.Recorder
		if recs != nil {
			rec = recs[i]
		}
		m, err := r.runCell(cells[i], rec)
		if err != nil {
			return fmt.Errorf("%s/%v: %w", cells[i].Workload, cells[i].Scheme, err)
		}
		out[i] = m
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// runCell replays a cell's (cached) op streams through a fresh system.
func (r *Runner) runCell(spec Spec, rec *obs.Recorder) (stats.Metrics, error) {
	sources, err := r.cache.Sources(spec)
	if err != nil {
		return stats.Metrics{}, err
	}
	sys, err := core.NewSystem(spec.config())
	if err != nil {
		return stats.Metrics{}, err
	}
	sys.SetRecorder(rec)
	return sys.Run(sources)
}

// traceKey identifies everything BuildSources' output depends on.
type traceKey = string

// unkeyedSpecFields lists the Spec fields deliberately excluded from the
// trace-cache key, each with the reason it cannot change BuildSources'
// output. keyOf includes every other field automatically, so the key
// fails closed: a newly added Spec field is keyed by default and two
// specs differing only in it never share a cache entry. (Before this,
// keyOf copied a fixed field list, and a spec field it didn't know
// about — like the KV request-mix knobs — silently shared one recording
// across cells that should have differed.)
var unkeyedSpecFields = map[string]string{
	// Trace generation runs the workload on the functional tracing
	// backend; the scheme only changes how the timing model replays the
	// recorded stream, which is the sharing the cache exists for.
	"Scheme": "trace generation is scheme-independent",
	// Of the config template, only the bank count and capacity shape the
	// address layout the workload allocates from; both are keyed
	// explicitly in the key prefix.
	"Base": "only Base.Banks and Base.MemBytes affect traces; keyed explicitly",
	// The core timing model replays the recorded stream; trace
	// generation runs the workload on the functional tracing backend and
	// never sees the model. Keeping it unkeyed is the point: an MLP
	// grid's model variants replay one recording.
	"CoreModel": "timing-only: traces are generated functionally",
}

func keyOf(spec Spec) traceKey {
	var b strings.Builder
	fmt.Fprintf(&b, "Base.Banks=%v;Base.MemBytes=%v;", spec.Base.Banks, spec.Base.MemBytes)
	v := reflect.ValueOf(spec)
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if _, excluded := unkeyedSpecFields[f.Name]; excluded {
			continue
		}
		mustKeyByValue("Spec."+f.Name, f.Type)
		fmt.Fprintf(&b, "%s=%v;", f.Name, v.Field(i).Interface())
	}
	return b.String()
}

// mustKeyByValue panics when a type cannot be rendered semantically by
// %v — pointers, maps, slices, and friends would key on storage
// addresses, making equal specs miss (or worse, recycled addresses
// collide). Such a field must be listed in unkeyedSpecFields with a
// justification or given explicit key handling; the panic turns a silent
// caching bug into an immediate failure on first use.
func mustKeyByValue(name string, t reflect.Type) {
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128,
		reflect.String:
		return
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			mustKeyByValue(name+"."+f.Name, f.Type)
		}
		return
	case reflect.Array:
		mustKeyByValue(name+"[]", t.Elem())
		return
	default:
		panic(fmt.Sprintf("bench: spec field %s has kind %v, which %%v cannot key semantically; add explicit key handling or justify exclusion in unkeyedSpecFields", name, t.Kind()))
	}
}

// traceEntry is one cached recording; ready closes once ops/err are set.
type traceEntry struct {
	ready chan struct{}
	ops   [][]trace.Op
	err   error
}

// TraceCache memoizes BuildSources recordings so a figure row's schemes
// regenerate their op streams once instead of once per scheme. Lookups
// for a key being built block until the builder finishes (each stream
// is generated exactly once even under concurrency). When RunCells has
// planned the cell grid, entries are evicted after their last planned
// use, bounding memory to the keys currently in flight.
type TraceCache struct {
	mu        sync.Mutex
	entries   map[traceKey]*traceEntry
	remaining map[traceKey]int

	hits, misses atomic.Int64
}

// NewTraceCache returns an empty cache.
func NewTraceCache() *TraceCache {
	return &TraceCache{
		entries:   make(map[traceKey]*traceEntry),
		remaining: make(map[traceKey]int),
	}
}

// Stats reports cumulative hit/miss counts.
func (c *TraceCache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// Plan registers the upcoming uses of each spec's trace so entries can
// be dropped after their last replay.
func (c *TraceCache) Plan(specs []Spec) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range specs {
		c.remaining[keyOf(s)]++
	}
}

// Sources returns fresh replay sources for the spec's op streams,
// recording them on first use.
func (c *TraceCache) Sources(spec Spec) ([]trace.Source, error) {
	k := keyOf(spec)
	c.mu.Lock()
	e, ok := c.entries[k]
	if !ok {
		e = &traceEntry{ready: make(chan struct{})}
		c.entries[k] = e
	}
	if n, planned := c.remaining[k]; planned {
		if n <= 1 {
			// Last planned use: the entry's ops stay alive through the
			// returned sources, but the cache lets go of them.
			delete(c.remaining, k)
			delete(c.entries, k)
		} else {
			c.remaining[k] = n - 1
		}
	}
	c.mu.Unlock()

	if !ok {
		c.misses.Add(1)
		cacheMisses.Add(1)
		e.ops, e.err = BuildSources(spec)
		close(e.ready)
	} else {
		c.hits.Add(1)
		cacheHits.Add(1)
		<-e.ready
	}
	if e.err != nil {
		return nil, e.err
	}
	return replaySources(e.ops), nil
}

// replaySources wraps recorded per-core op streams in fresh replay
// sources (*trace.SliceSource); the streams themselves are shared, not
// copied.
func replaySources(ops [][]trace.Op) []trace.Source {
	sources := make([]trace.Source, len(ops))
	for i, o := range ops {
		sources[i] = trace.NewSliceSource(o)
	}
	return sources
}

// Package-wide cache counters, so the CLI can report per-experiment
// hit/miss deltas across the runners the figure functions create.
var cacheHits, cacheMisses atomic.Int64

// CacheStats reports the cumulative trace-cache hits and misses across
// all runners in this process.
func CacheStats() (hits, misses int64) {
	return cacheHits.Load(), cacheMisses.Load()
}
