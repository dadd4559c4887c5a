package obs

import (
	"testing"
	"time"
)

// The disabled path is the one the driver runs in production compiles
// with observability off; these benchmarks measure that it stays a single
// nil check (sub-nanosecond). TestAllocGuardDisabled asserts it allocates
// nothing.

func BenchmarkDisabledCounterAdd(b *testing.B) {
	var r *Registry
	c := r.Counter("x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkDisabledHistogramObserve(b *testing.B) {
	var r *Registry
	h := r.Histogram("x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Microsecond)
	}
}

func BenchmarkDisabledShardRecord(b *testing.B) {
	var tr *Tracer
	sh := tr.NewShard(0)
	start := time.Now()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sh.Record("pass:opt", "pass", start, time.Microsecond)
	}
}

func BenchmarkEnabledCounterAdd(b *testing.B) {
	c := NewRegistry().Counter("x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkEnabledShardRecord(b *testing.B) {
	tr := NewTracerMax(int64(1) << 40)
	sh := tr.NewShard(0)
	start := time.Now()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sh.Record("pass:opt", "pass", start, time.Microsecond)
	}
}

func BenchmarkRegistryCounterLookup(b *testing.B) {
	r := NewRegistry()
	r.Counter("regalloc.spills")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Counter("regalloc.spills").Inc()
	}
}
