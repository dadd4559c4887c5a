package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	sh := tr.NewShard(3)
	if sh != nil {
		t.Fatalf("nil tracer handed out non-nil shard")
	}
	sh.Record("x", "y", time.Now(), time.Second) // must not panic
	if tr.Count() != 0 || tr.Dropped() != 0 {
		t.Fatalf("nil tracer counts nonzero")
	}
	if got := tr.Spans(); got != nil {
		t.Fatalf("nil tracer Spans = %v, want nil", got)
	}
	if err := tr.WriteChromeTrace(&bytes.Buffer{}); err == nil {
		t.Fatalf("nil tracer WriteChromeTrace should error")
	}

	var r *Registry
	if r.Counter("c") != nil || r.Gauge("g") != nil || r.Histogram("h") != nil {
		t.Fatalf("nil registry handed out non-nil instrument")
	}
	r.Counter("c").Add(5)
	r.Counter("c").Inc()
	r.Gauge("g").Set(7)
	r.Histogram("h").Observe(time.Millisecond)
	if r.Counter("c").Value() != 0 || r.Gauge("g").Value() != 0 || r.Histogram("h").Count() != 0 {
		t.Fatalf("nil instruments returned nonzero values")
	}
	if r.Snapshot() != nil {
		t.Fatalf("nil registry Snapshot non-nil")
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("compiles")
	c.Add(3)
	c.Inc()
	if got := c.Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	if r.Counter("compiles") != c {
		t.Fatalf("same name resolved to a different counter")
	}
	g := r.Gauge("entries")
	g.Set(10)
	g.Set(7)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}

	snap := r.Snapshot()
	if snap.Counters["compiles"] != 4 || snap.Gauges["entries"] != 7 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

func TestRegistryConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("shared").Inc()
				r.Gauge("g").Set(int64(i))
				r.Histogram("h").Observe(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 8000 {
		t.Fatalf("shared counter = %d, want 8000", got)
	}
	if got := r.Histogram("h").Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}

func TestHistogramSummary(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	// 9 fast observations and one slow one: p50 lands in a small bucket,
	// p95 in the 2ms bucket.
	for i := 0; i < 9; i++ {
		h.Observe(3 * time.Microsecond)
	}
	h.Observe(2 * time.Millisecond)

	s := h.summary()
	if s.Count != 10 {
		t.Fatalf("count = %d, want 10", s.Count)
	}
	if want := int64(9*3*time.Microsecond + 2*time.Millisecond); s.SumNanos != want {
		t.Fatalf("sum = %d, want %d", s.SumNanos, want)
	}
	if want := (4 * time.Microsecond).Nanoseconds(); s.P50Nanos != want {
		t.Fatalf("p50 = %d, want %d (4µs bucket bound)", s.P50Nanos, want)
	}
	// Bounds double from 1µs, so 2ms lands in the 2048µs bucket.
	if want := (2048 * time.Microsecond).Nanoseconds(); s.P95Nanos != want {
		t.Fatalf("p95 = %d, want %d (2048µs bucket bound)", s.P95Nanos, want)
	}
	var total int64
	for _, b := range s.Buckets {
		total += b.Count
	}
	if total != 10 {
		t.Fatalf("bucket counts sum to %d, want 10", total)
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("slow")
	h.Observe(time.Minute) // beyond the largest bound → +Inf bucket
	s := h.summary()
	if s.Count != 1 {
		t.Fatalf("count = %d, want 1", s.Count)
	}
	if len(s.Buckets) != 1 || s.Buckets[0].LENanos != -1 {
		t.Fatalf("want single +Inf bucket, got %+v", s.Buckets)
	}
	if s.P50Nanos != -1 || s.P95Nanos != -1 {
		t.Fatalf("quantiles should report +Inf (-1), got p50=%d p95=%d", s.P50Nanos, s.P95Nanos)
	}
}

func TestEmptyHistogramSummary(t *testing.T) {
	r := NewRegistry()
	s := r.Histogram("empty").summary()
	if s.Count != 0 || s.SumNanos != 0 || s.P50Nanos != 0 || s.P95Nanos != 0 || len(s.Buckets) != 0 {
		t.Fatalf("empty histogram summary = %+v", s)
	}
}

func TestSpanMergeDeterministicOrder(t *testing.T) {
	base := time.Now()
	build := func(order []int) []Span {
		tr := NewTracer()
		tr.epoch = base
		shards := []*Shard{tr.NewShard(0), tr.NewShard(1), tr.NewShard(2)}
		// Record in the given shard order; spans carry fixed start
		// offsets so the merged order depends only on span data.
		for _, tid := range order {
			sh := shards[tid]
			sh.Record("a", "c", base.Add(time.Duration(tid)*time.Millisecond), time.Millisecond)
			sh.Record("b", "c", base.Add(time.Duration(tid)*time.Millisecond), time.Millisecond)
		}
		return tr.Spans()
	}
	first := build([]int{0, 1, 2})
	second := build([]int{2, 0, 1})
	if len(first) != 6 || len(second) != 6 {
		t.Fatalf("span counts = %d, %d; want 6", len(first), len(second))
	}
	for i := range first {
		if !equalSpans(first[i], second[i]) {
			t.Fatalf("merge order differs at %d:\n  %+v\n  %+v", i, first[i], second[i])
		}
	}
	// Ties on start break by TID, then Seq.
	for i := 1; i < len(first); i++ {
		a, b := first[i-1], first[i]
		if a.StartNanos > b.StartNanos {
			t.Fatalf("spans out of start order at %d", i)
		}
		if a.StartNanos == b.StartNanos && a.TID > b.TID {
			t.Fatalf("tied spans out of TID order at %d", i)
		}
	}
}

func equalSpans(a, b Span) bool {
	return a.Name == b.Name && a.Cat == b.Cat && a.TID == b.TID &&
		a.Seq == b.Seq && a.StartNanos == b.StartNanos && a.DurNanos == b.DurNanos
}

// TestLeaseTIDs: a lease takes the lowest block of tids no other lease
// holds, so a compile alone on a tracer records on 0..n-1 and
// concurrent compiles never share a track.
func TestLeaseTIDs(t *testing.T) {
	tr := NewTracer()
	for _, step := range []struct {
		lease, release int // lease a block of this size, or release the block at this base
		want           int // the base a lease returns
	}{
		{lease: 3, want: 0},
		{lease: 3, want: 3},
		{lease: 2, want: 6},
		{release: 3},
		{lease: 2, want: 3}, // the lowest gap that fits
		{lease: 2, want: 8}, // [5, 6) is too small
		{release: 0},
		{release: 6},
		{lease: 3, want: 0},
		{lease: 4, want: 10}, // [5, 8) is too small
		{lease: 1, want: 5},
	} {
		if step.lease == 0 {
			tr.ReleaseTIDs(step.release)
			continue
		}
		if got := tr.LeaseTIDs(step.lease); got != step.want {
			t.Fatalf("LeaseTIDs(%d) = %d, want %d (leases %v)", step.lease, got, step.want, tr.leases)
		}
	}
	var nilTracer *Tracer
	if got := nilTracer.LeaseTIDs(4); got != 0 {
		t.Fatalf("nil tracer leased base %d", got)
	}
	nilTracer.ReleaseTIDs(0) // must not panic
}

func TestTracerMaxSpansDrops(t *testing.T) {
	tr := NewTracerMax(3)
	sh := tr.NewShard(0)
	for i := 0; i < 5; i++ {
		sh.Record("s", "c", time.Now(), time.Microsecond)
	}
	if got := tr.Count(); got != 3 {
		t.Fatalf("count = %d, want 3", got)
	}
	if got := tr.Dropped(); got != 2 {
		t.Fatalf("dropped = %d, want 2", got)
	}
	if got := len(tr.Spans()); got != 3 {
		t.Fatalf("len(Spans) = %d, want 3", got)
	}
}

func TestConcurrentShardsRace(t *testing.T) {
	tr := NewTracer()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			sh := tr.NewShard(tid)
			for i := 0; i < 500; i++ {
				sh.Record("pass:opt", "pass", time.Now(), time.Microsecond,
					Attr{Key: "func", Value: "f"})
			}
		}(w)
	}
	wg.Wait()
	if got := tr.Count(); got != 4000 {
		t.Fatalf("count = %d, want 4000", got)
	}
	if got := len(tr.Spans()); got != 4000 {
		t.Fatalf("merged spans = %d, want 4000", got)
	}
}

// TestWriteChromeTrace locks the export shape: a JSON object with a
// traceEvents array of complete ("X") events carrying name/cat/ts/dur/
// pid/tid and attrs as args.
func TestWriteChromeTrace(t *testing.T) {
	tr := NewTracer()
	sh := tr.NewShard(2)
	start := time.Now()
	sh.Record("pass:regalloc", "pass", start, 1500*time.Nanosecond,
		Attr{Key: "func", Value: "main"})

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Cat  string            `json:"cat"`
			Ph   string            `json:"ph"`
			TS   float64           `json:"ts"`
			Dur  float64           `json:"dur"`
			PID  int               `json:"pid"`
			TID  int               `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 1 {
		t.Fatalf("events = %d, want 1", len(doc.TraceEvents))
	}
	ev := doc.TraceEvents[0]
	if ev.Name != "pass:regalloc" || ev.Cat != "pass" || ev.Ph != "X" || ev.TID != 2 || ev.PID != 1 {
		t.Fatalf("event = %+v", ev)
	}
	if ev.Dur != 1.5 {
		t.Fatalf("dur = %v µs, want 1.5", ev.Dur)
	}
	if ev.Args["func"] != "main" {
		t.Fatalf("args = %v", ev.Args)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
}

func TestSnapshotJSONShape(t *testing.T) {
	r := NewRegistry()
	r.Counter("regalloc.spills").Add(2)
	r.Gauge("cache.entries").Set(5)
	r.Histogram("pass.optimize").Observe(10 * time.Microsecond)

	raw, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"counters", "gauges", "histograms"} {
		if _, ok := m[key]; !ok {
			t.Fatalf("snapshot JSON missing %q: %s", key, raw)
		}
	}
	var hists map[string]HistogramSummary
	if err := json.Unmarshal(m["histograms"], &hists); err != nil {
		t.Fatal(err)
	}
	if hists["pass.optimize"].Count != 1 {
		t.Fatalf("histograms = %+v", hists)
	}
}

// TestWriteChromeTraceSpansPID: the standalone span exporter stamps
// each span's PID into its event (zero exporting as process 1), so an
// aggregator holding batches from many requests renders one process
// row per request.
func TestWriteChromeTraceSpansPID(t *testing.T) {
	spans := []Span{
		{Name: "a", Cat: "compile", TID: 1},
		{Name: "b", Cat: "compile", TID: 2, PID: 7},
	}
	var buf bytes.Buffer
	if err := WriteChromeTraceSpans(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			PID  int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("events = %d, want 2", len(doc.TraceEvents))
	}
	if doc.TraceEvents[0].PID != 1 {
		t.Fatalf("zero PID exported as %d, want 1", doc.TraceEvents[0].PID)
	}
	if doc.TraceEvents[1].PID != 7 {
		t.Fatalf("explicit PID exported as %d, want 7", doc.TraceEvents[1].PID)
	}
}
