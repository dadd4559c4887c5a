package pipeline

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime/pprof"
	"strings"
	"testing"

	"ccmem/internal/diskcache"
	"ccmem/internal/ir"
	"ccmem/internal/obs"
	"ccmem/internal/workload"
)

// obsDriver builds a fresh driver with both observability backends on.
func obsDriver(workers int) *Driver {
	return New(Options{
		Workers: workers,
		Tracer:  obs.NewTracer(),
		Metrics: obs.NewRegistry(),
	})
}

// TestObsCountersDeterministicAcrossWorkers extends the determinism
// suite to the metrics registry: compilation is a pure function of
// (program, Config), so every counter and gauge — allocator spills,
// CCM promotions, optimizer rewrites, cache outcomes, oracle runs —
// must be byte-identical however many workers raced, and the span
// count must match too. Only wall-clock content (histogram bucket
// placement, span timestamps) may differ.
func TestObsCountersDeterministicAcrossWorkers(t *testing.T) {
	cfg := detConfig(Integrated)
	cfg.DiffCheck = DiffFinal // oracle counters join the comparison

	type shot struct {
		counters, gauges []byte
		histCounts       map[string]int64
		spans            int64
	}
	take := func(workers int) shot {
		d := obsDriver(workers)
		mustCompile(t, d, workload.RandomProgram(41), cfg)
		snap := d.Registry().Snapshot()
		cb, err := json.Marshal(snap.Counters)
		if err != nil {
			t.Fatal(err)
		}
		gb, err := json.Marshal(snap.Gauges)
		if err != nil {
			t.Fatal(err)
		}
		hc := make(map[string]int64, len(snap.Histograms))
		for name, h := range snap.Histograms {
			hc[name] = h.Count
		}
		return shot{counters: cb, gauges: gb, histCounts: hc, spans: d.Tracer().Count()}
	}

	one := take(1)
	eight := take(8)
	if !bytes.Equal(one.counters, eight.counters) {
		t.Errorf("counters differ across worker counts:\n workers=1: %s\n workers=8: %s", one.counters, eight.counters)
	}
	if !bytes.Equal(one.gauges, eight.gauges) {
		t.Errorf("gauges differ across worker counts:\n workers=1: %s\n workers=8: %s", one.gauges, eight.gauges)
	}
	if len(one.histCounts) != len(eight.histCounts) {
		t.Fatalf("histogram sets differ: %v vs %v", one.histCounts, eight.histCounts)
	}
	for name, n := range one.histCounts {
		if eight.histCounts[name] != n {
			t.Errorf("histogram %q count: workers=1 %d, workers=8 %d", name, n, eight.histCounts[name])
		}
	}
	if one.spans != eight.spans {
		t.Errorf("span count: workers=1 %d, workers=8 %d", one.spans, eight.spans)
	}
	if one.spans == 0 {
		t.Error("no spans recorded")
	}
	if len(one.histCounts) == 0 {
		t.Error("no pass histograms recorded")
	}
}

// TestWriteChromeTraceFromCompile locks the trace export end to end: a
// real compile's spans serialize to valid Chrome trace-event JSON with
// complete events, the pipeline's span vocabulary present, and the
// event count matching the report's span count.
func TestWriteChromeTraceFromCompile(t *testing.T) {
	d := obsDriver(4)
	rep := mustCompile(t, d, workload.RandomProgram(43), detConfig(Integrated))
	if rep.Spans == 0 {
		t.Fatal("report has no spans")
	}

	var buf bytes.Buffer
	if err := d.Tracer().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			PID  int     `json:"pid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if trace.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", trace.DisplayTimeUnit)
	}
	if int64(len(trace.TraceEvents)) != rep.Spans {
		t.Errorf("trace has %d events, report says %d spans", len(trace.TraceEvents), rep.Spans)
	}
	seen := map[string]bool{}
	for _, ev := range trace.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("event %q: ph = %q, want complete event X", ev.Name, ev.Ph)
		}
		if ev.PID != 1 || ev.Name == "" || ev.TS < 0 || ev.Dur < 0 {
			t.Fatalf("malformed event: %+v", ev)
		}
		seen[ev.Name] = true
	}
	for _, want := range []string{"compile", "front", "back", "pass:" + PassRegalloc, "cache:mem"} {
		if !seen[want] {
			t.Errorf("span %q missing from trace (got %v)", want, seen)
		}
	}
}

// TestPprofLabelsOnPassBodies: on a driver with a metrics registry the
// goroutine running a pass carries ccm_func/ccm_pass labels (so CPU
// profiles attribute samples per pass); on a driver with neither a
// registry nor a tracer, no labels leak in.
func TestPprofLabelsOnPassBodies(t *testing.T) {
	probe := func(got map[string]map[string]string) func(context.Context, string, *ir.Func) {
		return func(ctx context.Context, pass string, f *ir.Func) {
			if pass != PassRegalloc {
				return
			}
			labels := map[string]string{}
			for _, key := range []string{"ccm_func", "ccm_pass"} {
				if v, ok := pprof.Label(ctx, key); ok {
					labels[key] = v
				}
			}
			got[f.Name] = labels
		}
	}

	cfg := detConfig(PostPass)
	got := map[string]map[string]string{}
	cfg.passHook = probe(got)
	d := New(Options{Workers: 1, Metrics: obs.NewRegistry(), DisableCache: true})
	mustCompile(t, d, workload.RandomProgram(44), cfg)
	if len(got) == 0 {
		t.Fatal("probe pass never ran")
	}
	for fn, labels := range got {
		if labels["ccm_func"] != fn {
			t.Errorf("ccm_func label = %q, want %q", labels["ccm_func"], fn)
		}
		if labels["ccm_pass"] != PassRegalloc {
			t.Errorf("ccm_pass label = %q, want regalloc", labels["ccm_pass"])
		}
	}

	cfg2 := detConfig(PostPass)
	got2 := map[string]map[string]string{}
	cfg2.passHook = probe(got2)
	d2 := New(Options{Workers: 1, DisableCache: true})
	mustCompile(t, d2, workload.RandomProgram(44), cfg2)
	for fn, labels := range got2 {
		if len(labels) != 0 {
			t.Errorf("labels present without a registry or tracer on %s: %v", fn, labels)
		}
	}
}

// TestReportObsJSONShape pins the report surface: with observability on,
// "spans" and a "metrics" block (counters, gauges, histograms with the
// summary fields) appear; with it off, both stay omitted.
func TestReportObsJSONShape(t *testing.T) {
	d := obsDriver(2)
	rep := mustCompile(t, d, workload.RandomProgram(45), detConfig(Integrated))
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Spans   int64 `json:"spans"`
		Metrics *struct {
			Counters   map[string]int64 `json:"counters"`
			Gauges     map[string]int64 `json:"gauges"`
			Histograms map[string]struct {
				Count    int64 `json:"count"`
				SumNanos int64 `json:"sum_ns"`
				P50      int64 `json:"p50_ns"`
				P95      int64 `json:"p95_ns"`
			} `json:"histograms"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Spans == 0 {
		t.Error("spans field missing or zero in instrumented report")
	}
	if decoded.Metrics == nil {
		t.Fatalf("metrics block missing: %s", raw)
	}
	if len(decoded.Metrics.Counters) == 0 || len(decoded.Metrics.Histograms) == 0 {
		t.Errorf("metrics block incomplete: %s", raw)
	}
	if h, ok := decoded.Metrics.Histograms["pass."+PassRegalloc]; !ok || h.Count == 0 {
		t.Errorf("pass.regalloc histogram missing or empty: %s", raw)
	}

	plain := mustCompile(t, New(Options{}), workload.RandomProgram(45), detConfig(Integrated))
	praw, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"spans"`, `"metrics"`} {
		if strings.Contains(string(praw), key) {
			t.Errorf("uninstrumented report leaks %s: %s", key, praw)
		}
	}
}

// TestCacheLateAttachKeepsMisses is the regression test for the
// whole-cache accounting bug: Stats used to overwrite Misses with the
// disk tier's counter, so attaching a disk tier late erased every miss
// the memory tier had already taken and reported a perfect HitRate. The
// lookups are of program keys, the only ones that reach the disk tier.
func TestCacheLateAttachKeepsMisses(t *testing.T) {
	c := NewCache(0)
	var k1, k2 digest
	k1[0], k2[0] = 1, 2

	if _, ok := c.getProgram(k1, nil); ok {
		t.Fatal("empty cache hit")
	}
	c.putProgram(k1, &programArtifact{})
	if _, ok := c.getProgram(k1, nil); !ok {
		t.Fatal("stored artifact missed")
	}

	disk, err := diskcache.Open(t.TempDir(), diskcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c.AttachDisk(disk)
	if _, ok := c.getProgram(k2, nil); ok {
		t.Fatal("unknown key hit")
	}

	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 {
		t.Errorf("whole-cache counters = %d hits / %d misses, want 1/2 (pre-attach miss erased?): %+v",
			st.Hits, st.Misses, st)
	}
	if want := 1.0 / 3.0; st.HitRate != want {
		t.Errorf("HitRate = %v, want %v", st.HitRate, want)
	}
	if st.Hits != st.Memory.Hits+st.Disk.Hits {
		t.Errorf("tier hits do not add up: %+v", st)
	}
}

// TestCacheDegradedDiskMissCounting drives the disk tier to
// degraded-to-memory with injected write faults (ENOSPC on every write)
// and checks the whole-cache counters stay truthful: every fall-through
// is a miss, hits are exactly the per-tier hits, and HitRate is
// consistent with both.
func TestCacheDegradedDiskMissCounting(t *testing.T) {
	cfg := detConfig(PostPass)
	ffs := diskcache.NewFaultFS(nil)
	d := New(Options{CacheDir: t.TempDir(), DiskFS: ffs})
	if err := d.DiskCacheErr(); err != nil {
		t.Fatal(err)
	}
	ffs.SetWriteBudget(0)

	for seed := int64(50); seed < 54; seed++ {
		mustCompile(t, d, workload.RandomProgram(seed), cfg)
	}
	// Identical recompile: served by the memory tier despite the dead disk.
	rep := mustCompile(t, d, workload.RandomProgram(53), cfg)

	st := rep.Cache
	if !st.Disk.Degraded {
		t.Fatalf("disk tier not degraded under exhausted write budget: %+v", st.Disk)
	}
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("expected both hits and misses, got %d/%d", st.Hits, st.Misses)
	}
	if st.Hits != st.Memory.Hits+st.Disk.Hits {
		t.Errorf("Hits = %d, want Memory.Hits %d + Disk.Hits %d", st.Hits, st.Memory.Hits, st.Disk.Hits)
	}
	// The disk never serves anything here, so every memory miss fell
	// through the whole cache. The old tier-derived merge reported the
	// disk tier's view instead and hid these.
	if st.Misses != st.Memory.Misses {
		t.Errorf("Misses = %d, want every memory miss (%d) counted as a whole-cache miss", st.Misses, st.Memory.Misses)
	}
	if want := float64(st.Hits) / float64(st.Hits+st.Misses); st.HitRate != want {
		t.Errorf("HitRate = %v, want %v", st.HitRate, want)
	}
}

// TestCacheDiskHitAccounting: a second driver on a warm directory is
// served from disk, and the whole-cache counters decompose exactly into
// the tier counters.
func TestCacheDiskHitAccounting(t *testing.T) {
	cfg := detConfig(Integrated)
	dir := t.TempDir()
	mustCompile(t, New(Options{CacheDir: dir}), workload.RandomProgram(55), cfg)

	d := New(Options{CacheDir: dir})
	rep := mustCompile(t, d, workload.RandomProgram(55), cfg)
	st := rep.Cache
	if st.Disk.Hits == 0 {
		t.Fatalf("warm directory served no disk hits: %+v", st)
	}
	if st.Hits != st.Memory.Hits+st.Disk.Hits {
		t.Errorf("Hits = %d, want Memory.Hits %d + Disk.Hits %d", st.Hits, st.Memory.Hits, st.Disk.Hits)
	}
	if st.HitRate <= 0 || st.HitRate > 1 {
		t.Errorf("HitRate = %v, want in (0, 1]", st.HitRate)
	}
}

// TestCacheHitRateZeroLookups: a never-consulted cache must report
// hit_rate 0 — not NaN, which would make the -json report unmarshalable.
func TestCacheHitRateZeroLookups(t *testing.T) {
	st := NewCache(0).Stats()
	if st.HitRate != 0 {
		t.Errorf("HitRate = %v, want 0", st.HitRate)
	}
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatalf("zero-lookup stats do not marshal: %v", err)
	}
	if !strings.Contains(string(raw), `"hit_rate":0`) {
		t.Errorf("marshaled stats missing hit_rate 0: %s", raw)
	}
}
