package pipeline

import (
	"io"
	"testing"

	"ccmem/internal/ir"
	"ccmem/internal/obs"
	"ccmem/internal/workload"
)

// benchSuite is a fixed mixed workload: every program is compiled once
// per benchmark iteration, as the experiment harness does per sweep.
func benchSuite(b *testing.B) []*ir.Program {
	b.Helper()
	var progs []*ir.Program
	for seed := int64(1); seed <= 8; seed++ {
		progs = append(progs, workload.RandomProgram(seed))
	}
	for _, r := range workload.All()[:8] {
		p, err := r.Build()
		if err != nil {
			b.Fatal(err)
		}
		progs = append(progs, p)
	}
	return progs
}

func compileSuite(b *testing.B, d *Driver, progs []*ir.Program) {
	b.Helper()
	cfg := Config{Strategy: PostPassInterproc, CCMBytes: 512}
	for _, p := range progs {
		if _, err := d.Compile(p.Clone(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineCold compiles the suite with caching disabled: every
// iteration pays the full optimize/allocate/promote/compact cost.
func BenchmarkPipelineCold(b *testing.B) {
	progs := benchSuite(b)
	d := New(Options{DisableCache: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compileSuite(b, d, progs)
	}
}

// BenchmarkPipelineCached compiles the suite through one shared cache,
// primed before timing: every compile is a whole-program hit (hash +
// clone). The acceptance bar is >= 5x over BenchmarkPipelineCold.
func BenchmarkPipelineCached(b *testing.B) {
	progs := benchSuite(b)
	d := New(Options{})
	compileSuite(b, d, progs) // prime
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compileSuite(b, d, progs)
	}
	b.StopTimer()
	st := d.Cache().Stats()
	b.ReportMetric(float64(st.Hits), "cache-hits")
	b.ReportMetric(float64(st.Misses), "cache-misses")
}

// BenchmarkPipelineObsOff is the overhead baseline for the pair below:
// identical to BenchmarkPipelineCold, re-declared so the two rows sit
// together in benchstat output. The acceptance bar for the subsystem is
// that this row and the instrumented one differ within noise only when
// observability is disabled — the nil-check fast paths must keep the
// uninstrumented pipeline free.
func BenchmarkPipelineObsOff(b *testing.B) {
	progs := benchSuite(b)
	d := New(Options{DisableCache: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compileSuite(b, d, progs)
	}
}

// BenchmarkPipelineObsOn measures the full cost of spans + metrics +
// pprof labels on a cold compile of the same suite, draining the tracer
// between iterations so the span buffers do not saturate.
func BenchmarkPipelineObsOn(b *testing.B) {
	progs := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := New(Options{
			DisableCache: true,
			Tracer:       obs.NewTracer(),
			Metrics:      obs.NewRegistry(),
		})
		compileSuite(b, d, progs)
	}
	b.StopTimer()
	// Keep the export path honest without timing it.
	d := New(Options{DisableCache: true, Tracer: obs.NewTracer()})
	compileSuite(b, d, progs)
	if err := d.Tracer().WriteChromeTrace(io.Discard); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkKeys measures the key work of one checked compile of every
// suite input (64 routines and 11 programs): the input's function and
// program digests, the program key, every front and back key, and the
// post-program digest the oracle keys its memo by. The keys stand on the
// input bodies; the compiled bodies have the same shape.
func BenchmarkKeys(b *testing.B) {
	progs := suiteInputs(b)
	cfg := Config{Strategy: PostPassInterproc, CCMBytes: 512, DiffCheck: DiffFinal}.withDefaults()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			fds := make([]digest, len(p.Funcs))
			pd := programDigest(p, fds)
			programKey(pd, cfg)
			for j, f := range p.Funcs {
				frontKey(fds[j], cfg)
				backKey(f, cfg)
			}
			programDigest(p, nil)
		}
	}
}

// BenchmarkDecodeProgram measures the codec's decoder over the payloads
// of every suite input compiled post-pass interprocedurally at 512 bytes
// of CCM: the work a persistent-tier program hit does once its entry is
// read and checksummed.
func BenchmarkDecodeProgram(b *testing.B) {
	d := New(Options{DisableCache: true})
	var payloads [][]byte
	for _, p := range suiteInputs(b) {
		rep, err := d.Compile(p, Config{Strategy: PostPassInterproc, CCMBytes: 512})
		if err != nil {
			b.Fatal(err)
		}
		payloads = append(payloads, encodeProgramV2(&programArtifact{funcs: p.Funcs, perFunc: rep.PerFunc}))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, payload := range payloads {
			if _, err := decodeProgramV2(payload); err != nil {
				b.Fatal(err)
			}
		}
	}
}
