// Benchmarks that regenerate every table and figure of the paper's
// evaluation, plus micro-benchmarks of the pipeline's hot components.
// Run with:
//
//	go test -bench=. -benchmem
//
// Each TableN/FigureN benchmark performs the full measurement that backs
// the corresponding artifact (compile + instrumented execution of the
// suite) and reports the headline numbers as custom metrics, so `go test
// -bench` output doubles as a summary of the reproduction.
package ccm

import (
	"testing"

	"ccmem/internal/core"
	"ccmem/internal/experiments"
	"ccmem/internal/ir"
	"ccmem/internal/opt"
	"ccmem/internal/pipeline"
	"ccmem/internal/regalloc"
	"ccmem/internal/sim"
	"ccmem/internal/workload"
)

// BenchmarkTable1Compaction regenerates Table 1: the plain allocator runs
// over every suite routine and the coloring-based compactor packs its
// spill memory. Reports the total After/Before ratio (paper: 0.68).
func BenchmarkTable1Compaction(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		var before, after int64
		for _, r := range workload.All() {
			p, err := r.Build()
			if err != nil {
				b.Fatal(err)
			}
			if _, err := opt.OptimizeProgram(p); err != nil {
				b.Fatal(err)
			}
			f := p.Func(r.Name)
			if _, err := regalloc.Allocate(f, regalloc.Options{}); err != nil {
				b.Fatal(err)
			}
			cres, err := core.CompactSpills(f)
			if err != nil {
				b.Fatal(err)
			}
			if cres.AfterBytes < cres.BeforeBytes {
				before += cres.BeforeBytes
				after += cres.AfterBytes
			}
		}
		if before > 0 {
			ratio = float64(after) / float64(before)
		}
	}
	b.ReportMetric(ratio, "after/before")
}

func benchRoutineTable(b *testing.B, size int64) *experiments.SuiteResults {
	b.Helper()
	cfg := experiments.Default()
	cfg.CCMSizes = []int64{size}
	var res *experiments.SuiteResults
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunRoutineSuite(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	return res
}

// BenchmarkTable2CCM512 regenerates Table 2 (512-byte CCM, per-routine
// relative cycles for all three algorithms) and reports the weighted
// average total-cycle reduction for the call-graph post-pass.
func BenchmarkTable2CCM512(b *testing.B) {
	res := benchRoutineTable(b, 512)
	t4 := res.Table4()
	cell := t4[experiments.Key{Strategy: experiments.StrategyPostPassIPA, CCMBytes: 512}]
	b.ReportMetric(cell.TotalPct, "%total-reduction")
	b.ReportMetric(cell.MemPct, "%mem-reduction")
	b.ReportMetric(float64(len(res.Table2(512))), "spilling-routines")
}

// BenchmarkTable3CCM1024 regenerates the 1024-byte measurements and
// reports how many routines improved beyond their 512-byte results.
func BenchmarkTable3CCM1024(b *testing.B) {
	cfg := experiments.Default()
	var rows int
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunRoutineSuite(cfg)
		if err != nil {
			b.Fatal(err)
		}
		rows = len(res.Table3(512, 1024))
	}
	b.ReportMetric(float64(rows), "routines-improved")
}

// BenchmarkTable4WeightedAverage regenerates Table 4 across both CCM
// sizes and all three algorithms.
func BenchmarkTable4WeightedAverage(b *testing.B) {
	cfg := experiments.Default()
	var t4 map[experiments.Key]experiments.Table4Cell
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunRoutineSuite(cfg)
		if err != nil {
			b.Fatal(err)
		}
		t4 = res.Table4()
	}
	labels := map[experiments.Strategy]string{
		experiments.StrategyPostPass:    "postpass",
		experiments.StrategyPostPassIPA: "postpass-cg",
		experiments.StrategyIntegrated:  "integrated",
	}
	for _, st := range experiments.Strategies {
		for _, size := range cfg.CCMSizes {
			cell := t4[experiments.Key{Strategy: st, CCMBytes: size}]
			b.ReportMetric(cell.TotalPct, labels[st]+"-"+sizeLabel(size)+"-total%")
		}
	}
}

func sizeLabel(n int64) string {
	if n == 512 {
		return "512B"
	}
	return "1024B"
}

func benchFigure(b *testing.B, size int64) {
	b.Helper()
	cfg := experiments.Default()
	cfg.CCMSizes = []int64{size}
	var improved, total int
	var bestRatio float64 = 1
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunProgramSuite(cfg)
		if err != nil {
			b.Fatal(err)
		}
		rows := res.Figure(size)
		improved, total = len(rows), len(res.Programs)
		for _, row := range rows {
			for _, st := range experiments.Strategies {
				if r := row.Ratios[st][0]; r < bestRatio {
					bestRatio = r
				}
			}
		}
	}
	b.ReportMetric(float64(improved), "programs-improved")
	b.ReportMetric(float64(total), "programs-total")
	b.ReportMetric(bestRatio, "best-ratio")
}

// BenchmarkFigure3Programs512 regenerates Figure 3 (whole-program running
// times, 512-byte CCM).
func BenchmarkFigure3Programs512(b *testing.B) { benchFigure(b, 512) }

// BenchmarkFigure4Programs1024 regenerates Figure 4 (1024-byte CCM).
func BenchmarkFigure4Programs1024(b *testing.B) { benchFigure(b, 1024) }

// BenchmarkAblation43 regenerates the §4.3 memory-hierarchy comparison.
func BenchmarkAblation43(b *testing.B) {
	var rows []experiments.AblationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Ablation43(experiments.Default(), nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Name == "fpppp" {
			b.ReportMetric(r.CCM, "fpppp-ccm-ratio")
			b.ReportMetric(r.VictimCache, "fpppp-victim-ratio")
		}
	}
}

// BenchmarkRestartWarmDiskCache measures what the persistent artifact
// cache buys across a process restart: every iteration builds a brand-new
// driver — cold in-memory state, as after an exec — pointed at a cache
// directory a prior driver populated, and recompiles the same workload.
// The compile is answered from verified on-disk artifacts instead of
// re-running the passes; the cold path is measured by
// BenchmarkRestartColdCompile below, and the reported warm-hit-rate
// confirms the disk tier (not a recompile) produced the result.
func BenchmarkRestartWarmDiskCache(b *testing.B) {
	dir := b.TempDir()
	cfg := pipeline.Config{Strategy: pipeline.Integrated, CCMBytes: 512}
	seeds := []int64{1, 2, 3, 4}

	warmer := pipeline.New(pipeline.Options{CacheDir: dir})
	if err := warmer.DiskCacheErr(); err != nil {
		b.Fatal(err)
	}
	for _, seed := range seeds {
		if _, err := warmer.Compile(workload.RandomProgram(seed), cfg); err != nil {
			b.Fatal(err)
		}
	}

	var rep *pipeline.Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := pipeline.New(pipeline.Options{CacheDir: dir}) // the "restarted" process
		for _, seed := range seeds {
			var err error
			rep, err = d.Compile(workload.RandomProgram(seed), cfg)
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	if rep != nil {
		b.ReportMetric(rep.Cache.HitRate, "warm-hit-rate")
	}
}

// BenchmarkRestartColdCompile is the baseline for the restart benchmark:
// the identical workload with no cache at all. The warm/cold ns-per-op
// ratio is the restart speedup the disk tier provides.
func BenchmarkRestartColdCompile(b *testing.B) {
	cfg := pipeline.Config{Strategy: pipeline.Integrated, CCMBytes: 512}
	seeds := []int64{1, 2, 3, 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := pipeline.New(pipeline.Options{DisableCache: true})
		for _, seed := range seeds {
			if _, err := d.Compile(workload.RandomProgram(seed), cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// ---- micro-benchmarks of the pipeline components ----

func buildFor(b *testing.B, name string) *ir.Program {
	b.Helper()
	r, ok := workload.Lookup(name)
	if !ok {
		b.Fatalf("no routine %s", name)
	}
	p, err := r.Build()
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkOptimizerFpppp measures the scalar optimizer on the suite's
// largest straight-line web.
func BenchmarkOptimizerFpppp(b *testing.B) {
	base := buildFor(b, "fpppp")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := base.Clone()
		if _, err := opt.OptimizeProgram(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllocatorFpppp measures Chaitin-Briggs allocation (including
// the iterated spill rounds) on fpppp.
func BenchmarkAllocatorFpppp(b *testing.B) {
	base := buildFor(b, "fpppp")
	if _, err := opt.OptimizeProgram(base); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := base.Clone()
		if _, err := regalloc.Allocate(p.Func("fpppp"), regalloc.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPostPassFpppp measures the post-pass CCM allocator alone.
func BenchmarkPostPassFpppp(b *testing.B) {
	base := buildFor(b, "fpppp")
	if _, err := opt.OptimizeProgram(base); err != nil {
		b.Fatal(err)
	}
	for _, f := range base.Funcs {
		if _, err := regalloc.Allocate(f, regalloc.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := base.Clone()
		if _, err := core.PostPass(p, core.PostPassOptions{CCMBytes: 1024, Interprocedural: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompactionFpppp measures coloring-based spill compaction.
func BenchmarkCompactionFpppp(b *testing.B) {
	base := buildFor(b, "fpppp")
	if _, err := opt.OptimizeProgram(base); err != nil {
		b.Fatal(err)
	}
	for _, f := range base.Funcs {
		if _, err := regalloc.Allocate(f, regalloc.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := base.Clone()
		if _, err := core.CompactSpills(p.Func("fpppp")); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorThroughput measures interpreter speed in simulated
// instructions per second on a compiled kernel.
func BenchmarkSimulatorThroughput(b *testing.B) {
	p := buildFor(b, "radb5X")
	if _, err := opt.OptimizeProgram(p); err != nil {
		b.Fatal(err)
	}
	for _, f := range p.Funcs {
		if _, err := regalloc.Allocate(f, regalloc.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	m, err := sim.New(p, sim.Config{})
	if err != nil {
		b.Fatal(err)
	}
	var instrs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := m.Run("main")
		if err != nil {
			b.Fatal(err)
		}
		instrs += st.Instrs
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "sim-instrs/s")
}

// BenchmarkParserRoundTrip measures the textual ILOC parser and printer.
func BenchmarkParserRoundTrip(b *testing.B) {
	p := buildFor(b, "tomcatv")
	text := p.String()
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q, err := ir.Parse(text)
		if err != nil {
			b.Fatal(err)
		}
		if q.String() == "" {
			b.Fatal("empty print")
		}
	}
}
