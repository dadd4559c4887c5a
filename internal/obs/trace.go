// Package obs is the pipeline's structured observability layer: spans
// (a lightweight trace of what ran where, exportable as Chrome
// trace-event JSON for Perfetto), and a metrics registry of counters,
// gauges, and fixed-bucket latency histograms.
//
// Two properties shape every API here:
//
//   - The disabled path must cost ~nothing. Every type is nil-safe: a nil
//     *Tracer hands out nil *Shards, a nil *Registry hands out nil
//     *Counters, and recording through any nil handle is a single
//     predictable branch. The pipeline's hot loops therefore carry obs
//     handles unconditionally and pay only when observability is on
//     (the package benchmarks guard this).
//
//   - Determinism is split by kind. Counter and gauge values are pure
//     functions of what work ran, so they are byte-identical across
//     worker counts (the pipeline's determinism suite asserts this).
//     Span timestamps and histogram bucket placements measure wall
//     clock and are NOT deterministic; only their counts are.
//
// Concurrency model for spans: each worker records into its own Shard —
// append-only, single-owner, no locks or atomics on the record path. The
// tracer only takes a lock to hand out shards and to merge them at
// export time. Export (Spans, WriteChromeTrace) must not run concurrently
// with recording; the pipeline guarantees this by exporting only after
// its worker pools have joined.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultMaxSpans bounds a tracer's memory: one span is ~100 bytes, so
// the default caps the trace buffer around 100 MB on a pathological
// run. Spans past the cap are counted in Dropped, never recorded.
const DefaultMaxSpans = 1 << 20

// Attr is one key/value annotation on a span. Values are strings so a
// span never retains pipeline objects.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one completed timed region. StartNanos is relative to the
// tracer's epoch (its creation time), so spans from one tracer share a
// timeline; TID is the logical worker that ran the region. A compile
// records on a block of tids its tracer leases it (LeaseTIDs): the
// block's first tid is the goroutine driving the compile, the next N its
// pool workers, so a compile alone on its tracer records on 0..N. PID
// groups spans into separate process rows in the exported trace — a
// tracer records PID 0 (exported as process 1), and an aggregator
// merging spans from several tracers (one per request, say) stamps each
// batch with its own PID before export so the viewer shows one process
// group per batch.
type Span struct {
	Name       string `json:"name"`
	Cat        string `json:"cat"`
	PID        int    `json:"pid,omitempty"`
	TID        int    `json:"tid"`
	Seq        int64  `json:"seq"` // per-shard record order
	StartNanos int64  `json:"start_ns"`
	DurNanos   int64  `json:"dur_ns"`
	Attrs      []Attr `json:"attrs,omitempty"`
}

// Tracer collects spans from any number of shards. The zero value is not
// usable; a nil *Tracer is the disabled tracer and every method on it is
// a cheap no-op.
type Tracer struct {
	epoch   time.Time
	max     int64
	count   atomic.Int64
	dropped atomic.Int64

	mu     sync.Mutex
	shards []*Shard
	leases []tidLease // tid blocks in use, by first tid
}

// tidLease is one block of tids in use: [base, base+n).
type tidLease struct{ base, n int }

// NewTracer builds a tracer bounded to DefaultMaxSpans recorded spans.
func NewTracer() *Tracer { return NewTracerMax(DefaultMaxSpans) }

// NewTracerMax builds a tracer bounded to maxSpans (<= 0 uses
// DefaultMaxSpans).
func NewTracerMax(maxSpans int64) *Tracer {
	if maxSpans <= 0 {
		maxSpans = DefaultMaxSpans
	}
	return &Tracer{epoch: time.Now(), max: maxSpans}
}

// NewShard hands out a recording buffer owned by exactly one goroutine.
// tid labels the logical worker in exported traces. Returns nil on a nil
// tracer, and recording into a nil shard is a no-op, so callers thread
// shards unconditionally.
func (t *Tracer) NewShard(tid int) *Shard {
	if t == nil {
		return nil
	}
	s := &Shard{t: t, tid: tid}
	t.mu.Lock()
	t.shards = append(t.shards, s)
	t.mu.Unlock()
	return s
}

// LeaseTIDs reserves the lowest block of n consecutive tids that no
// other lease holds and returns its first tid; ReleaseTIDs frees it.
// Each compile in flight on a tracer records on its own block, so spans
// of concurrent compiles never share a track, and sequential compiles
// all record on tids 0..n-1. Returns 0 on a nil tracer.
func (t *Tracer) LeaseTIDs(n int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	base, at := 0, 0
	for ; at < len(t.leases) && t.leases[at].base < base+n; at++ {
		base = t.leases[at].base + t.leases[at].n
	}
	t.leases = slices.Insert(t.leases, at, tidLease{base, n})
	return base
}

// ReleaseTIDs frees the block whose first tid is base; call it once no
// shard records on the block any more. No-op on a nil tracer.
func (t *Tracer) ReleaseTIDs(base int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.leases = slices.DeleteFunc(t.leases, func(l tidLease) bool { return l.base == base })
}

// Count returns the number of spans recorded so far (0 on nil).
func (t *Tracer) Count() int64 {
	if t == nil {
		return 0
	}
	return t.count.Load()
}

// Dropped returns the number of spans discarded over the MaxSpans bound.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// Spans merges every shard and returns the spans in deterministic order:
// by start time, then worker, then per-shard sequence, then name. The
// ordering function is a pure function of the span data, so one trace
// always merges the same way. Must not be called while shards are still
// recording.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Span
	for _, s := range t.shards {
		out = append(out, s.spans...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.StartNanos != b.StartNanos {
			return a.StartNanos < b.StartNanos
		}
		if a.TID != b.TID {
			return a.TID < b.TID
		}
		if a.Seq != b.Seq {
			return a.Seq < b.Seq
		}
		return a.Name < b.Name
	})
	return out
}

// Shard is a single-owner span buffer. Record is lock-free: only the
// owning goroutine appends, and the tracer reads the buffer only after
// the owner is done.
type Shard struct {
	t     *Tracer
	tid   int
	seq   int64
	spans []Span
}

// Record appends one completed span. start is the wall-clock start, dur
// the measured duration (callers already time their regions for the
// per-pass report, so the span reuses those measurements instead of
// reading the clock again). No-op on a nil shard. The span keeps a copy
// of attrs, so the variadic slice does not escape and a disabled call
// allocates nothing.
func (s *Shard) Record(name, cat string, start time.Time, dur time.Duration, attrs ...Attr) {
	if s == nil {
		return
	}
	if s.t.count.Load() >= s.t.max {
		s.t.dropped.Add(1)
		return
	}
	s.t.count.Add(1)
	s.seq++
	s.spans = append(s.spans, Span{
		Name:       name,
		Cat:        cat,
		TID:        s.tid,
		Seq:        s.seq,
		StartNanos: start.Sub(s.t.epoch).Nanoseconds(),
		DurNanos:   dur.Nanoseconds(),
		Attrs:      append([]Attr(nil), attrs...),
	})
}

// chromeEvent is one Chrome trace-event object. Complete events
// (ph "X") carry their duration, so no begin/end pairing is needed.
// Timestamps are microseconds (the format's unit), fractional to keep
// sub-microsecond pass timings distinguishable.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// chromeTrace is the JSON-object form of the trace file; Perfetto and
// chrome://tracing both load it.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace exports the merged spans as Chrome trace-event JSON
// (load the file in https://ui.perfetto.dev or chrome://tracing). Worker
// IDs become tids, so the sequential interprocedural barrier and worker
// imbalance are visible as gaps on the worker rows. Must not be called
// while shards are still recording.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		return fmt.Errorf("obs: WriteChromeTrace on a nil Tracer")
	}
	return WriteChromeTraceSpans(w, t.Spans())
}

// WriteChromeTraceSpans exports an arbitrary span slice as Chrome
// trace-event JSON. It is the export path for callers that aggregate
// spans from more than one tracer (the compile service merges one
// tracer per traced request): stamp each batch's Span.PID before
// appending and every batch renders as its own process group. A zero
// PID exports as process 1, so single-tracer traces look as they always
// have.
func WriteChromeTraceSpans(w io.Writer, spans []Span) error {
	events := make([]chromeEvent, 0, len(spans))
	for _, sp := range spans {
		pid := sp.PID
		if pid == 0 {
			pid = 1
		}
		ev := chromeEvent{
			Name: sp.Name,
			Cat:  sp.Cat,
			Ph:   "X",
			TS:   float64(sp.StartNanos) / 1e3,
			Dur:  float64(sp.DurNanos) / 1e3,
			PID:  pid,
			TID:  sp.TID,
		}
		if len(sp.Attrs) > 0 {
			ev.Args = make(map[string]string, len(sp.Attrs))
			for _, a := range sp.Attrs {
				ev.Args[a.Key] = a.Value
			}
		}
		events = append(events, ev)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"})
}
