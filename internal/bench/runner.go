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

// runCells is the one way an experiment runs its timing cells. It
// plans a fresh trace cache for the cells, runs them across o.Parallel
// workers (each replaying its cached op streams through a fresh
// core.System, so cells share no mutable state), and returns the
// metrics and recorders in cell order, byte-identical at any worker
// count. A cell the collector o.Obs wants runs with the collector's
// recorder; any other cell gets a plain histogram recorder when
// observe is set (the caller reads the recorders) and none otherwise.
// The collector receives its cells in cell order once all have run. On
// failure the lowest-index error is returned, so errors are
// deterministic too.
func (o Opts) runCells(cells []Spec, observe bool) ([]stats.Metrics, []*obs.Recorder, error) {
	recs, captures := o.recorders(cells, observe)
	cache := NewTraceCache()
	cache.Plan(cells)
	out := make([]stats.Metrics, len(cells))
	err := par.ForEachIndex(o.Parallel, len(cells), func(i int) error {
		m, err := runCell(cache, cells[i], recs[i])
		if err != nil {
			return fmt.Errorf("%s/%v: %w", cells[i].Workload, cells[i].Scheme, err)
		}
		out[i] = m
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	o.Obs.collect(captures)
	return out, recs, nil
}

// recorders picks each cell's recorder, as runCells describes, and
// returns the collector's captures for the cells it wants. A cell that
// builds its own system (the fault sweep's quarantine cell) takes its
// recorder here too.
func (o Opts) recorders(cells []Spec, observe bool) (recs []*obs.Recorder, captures []CellObs) {
	recs = make([]*obs.Recorder, len(cells))
	for i, s := range cells {
		if c := o.Obs.newCell(cellLabel(s), s.TxBytes, s.Base.WriteQueueEntries); c.Rec != nil {
			recs[i] = c.Rec
			captures = append(captures, c)
		} else if observe {
			recs[i] = obs.NewRecorder(obs.Options{})
		}
	}
	return recs, captures
}

// runCell replays a cell's (cached) op streams through a fresh system.
func runCell(cache *TraceCache, spec Spec, rec *obs.Recorder) (stats.Metrics, error) {
	sources, err := cache.Sources(spec)
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

// traceEntry is one cached recording; ready closes once streams/err
// are set.
type traceEntry struct {
	ready   chan struct{}
	streams []trace.Stream
	err     error
}

// TraceCache memoizes BuildSources recordings so a figure row's schemes
// regenerate their op streams once instead of once per scheme. Lookups
// for a key being built block until the builder finishes (each stream
// is generated exactly once even under concurrency). When runCells has
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
			// Last planned use: the entry's streams stay alive through the
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
		e.streams, e.err = BuildSources(spec)
		close(e.ready)
	} else {
		c.hits.Add(1)
		cacheHits.Add(1)
		<-e.ready
	}
	if e.err != nil {
		return nil, e.err
	}
	return replaySources(e.streams), nil
}

// replaySources wraps recorded per-core op streams in fresh replay
// sources (*trace.SliceSource); the streams themselves are shared, not
// copied.
func replaySources(streams []trace.Stream) []trace.Source {
	sources := make([]trace.Source, len(streams))
	for i, s := range streams {
		sources[i] = s.Source()
	}
	return sources
}

// Package-wide cache counters, so the CLI can report per-experiment
// hit/miss deltas across the caches each experiment's runCells creates.
var cacheHits, cacheMisses atomic.Int64

// CacheStats reports the cumulative trace-cache hits and misses across
// all trace caches in this process.
func CacheStats() (hits, misses int64) {
	return cacheHits.Load(), cacheMisses.Load()
}
