package pipeline

import (
	"context"
	"sync"
	"testing"

	"ccmem/internal/obs"
	"ccmem/internal/workload"
)

// TestCompileTracedIsolation: per-compile tracers are the serving
// story's race-free trace export — two concurrent compiles on one
// driver each record into their own tracer, and neither tracer is
// touched after its compile returns, so callers can export immediately.
func TestCompileTracedIsolation(t *testing.T) {
	drv := New(Options{Workers: 4, DisableCache: true})
	if drv.Tracer() != nil {
		t.Fatalf("driver has a global tracer; the test wants none")
	}
	const n = 4
	tracers := make([]*obs.Tracer, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		tracers[i] = obs.NewTracer()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := workload.RandomProgram(int64(i + 1))
			if _, err := drv.CompileTraced(context.Background(), p, Config{Strategy: PostPass, CCMBytes: 512}, tracers[i]); err != nil {
				t.Errorf("compile %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	for i, tr := range tracers {
		if tr.Count() == 0 {
			t.Errorf("tracer %d recorded no spans", i)
		}
		// Every span in this tracer belongs to this compile: span counts
		// must equal a solo traced compile of the same program.
		solo := obs.NewTracer()
		sdrv := New(Options{Workers: 4, DisableCache: true})
		p := workload.RandomProgram(int64(i + 1))
		if _, err := sdrv.CompileTraced(context.Background(), p, Config{Strategy: PostPass, CCMBytes: 512}, solo); err != nil {
			t.Fatalf("solo compile %d: %v", i, err)
		}
		if tr.Count() != solo.Count() {
			t.Errorf("tracer %d holds %d spans, solo compile recorded %d — spans leaked across compiles",
				i, tr.Count(), solo.Count())
		}
	}
}

// TestCompileTracedNilFallsBack: a nil per-compile tracer means "use
// the driver's own" — the ccmc path is unchanged.
func TestCompileTracedNilFallsBack(t *testing.T) {
	global := obs.NewTracer()
	drv := New(Options{Workers: 1, DisableCache: true, Tracer: global})
	p := workload.RandomProgram(1)
	if _, err := drv.CompileTraced(context.Background(), p, Config{Strategy: NoCCM}, nil); err != nil {
		t.Fatalf("compile: %v", err)
	}
	if global.Count() == 0 {
		t.Fatalf("nil tracer did not fall back to the driver's tracer")
	}
}

// TestCompilesLeaseTIDBlocks: a compile records on a block of tids its
// tracer leases it and frees on return, error or not. Compiles one at a
// time, on the driver's tracer or a per-request one, keep tids
// 0..workers; compiles in flight together on one tracer get disjoint
// blocks.
func TestCompilesLeaseTIDBlocks(t *testing.T) {
	const workers = 3
	tr := obs.NewTracer()
	drv := New(Options{Workers: workers, DisableCache: true, Tracer: tr})
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := drv.CompileContext(cancelled, workload.RandomProgram(1), Config{Strategy: NoCCM}); err == nil {
		t.Fatal("a compile under a cancelled context succeeded")
	}
	for i := 0; i < 3; i++ {
		mustCompile(t, drv, workload.RandomProgram(int64(i+1)), Config{Strategy: PostPass, CCMBytes: 512})
	}
	for _, sp := range tr.Spans() {
		if sp.TID > workers {
			t.Fatalf("sequential compiles recorded %q on tid %d, past 0..%d", sp.Name, sp.TID, workers)
		}
	}

	// Hold one block, as a compile in flight does: the next compile
	// records on the block after it.
	held := tr.LeaseTIDs(workers + 1)
	before := len(tr.Spans())
	mustCompile(t, drv, workload.RandomProgram(9), Config{Strategy: PostPass, CCMBytes: 512})
	tr.ReleaseTIDs(held)
	for _, sp := range tr.Spans()[before:] {
		if sp.TID <= workers || sp.TID > 2*workers+1 {
			t.Fatalf("a compile beside a held block recorded %q on tid %d, want %d..%d", sp.Name, sp.TID, workers+1, 2*workers+1)
		}
	}
}
