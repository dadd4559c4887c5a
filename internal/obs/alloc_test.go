package obs

import (
	"testing"
	"time"
)

// TestAllocGuardDisabled pins the zero-alloc contract of disabled
// observability: a nil registry's instruments and a nil tracer's shard
// cost no allocation per call, with or without span attributes, so call
// sites need no enabled-check of their own.
func TestAllocGuardDisabled(t *testing.T) {
	var r *Registry
	var tr *Tracer
	sh := tr.NewShard(0)
	start := time.Now()
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"Counter", func() { r.Counter("x").Add(1) }},
		{"Gauge", func() { r.Gauge("x").Set(1) }},
		{"Histogram", func() { r.Histogram("x").Observe(time.Microsecond) }},
		{"Record", func() { sh.Record("pass:opt", "pass", start, time.Microsecond) }},
		{"Record with an Attr", func() {
			sh.Record("pass:opt", "pass", start, time.Microsecond, Attr{Key: "func", Value: "main"})
		}},
		{"LeaseTIDs and ReleaseTIDs", func() { tr.ReleaseTIDs(tr.LeaseTIDs(9)) }},
	} {
		if avg := testing.AllocsPerRun(100, tc.fn); avg != 0 {
			t.Errorf("disabled %s allocates %.1f/op, want 0", tc.name, avg)
		}
	}
}
