// Command ccmc compiles textual ILOC through the reproduction's pipeline:
// scalar optimization, Chaitin-Briggs register allocation, CCM spill
// promotion (per the chosen strategy), and spill-memory compaction, driven
// by the concurrent caching pipeline in internal/pipeline.
//
// Usage:
//
//	ccmc [-strategy none|postpass|postpass-ipa|integrated] [-ccm BYTES]
//	     [-regs N] [-no-opt] [-no-compact] [-workers N]
//	     [-verify-passes] [-strict] [-repro-dir DIR]
//	     [-diff-check off|final] [-diff-vectors N]
//	     [-cache-dir DIR] [-cache-bytes N]
//	     [-trace out.json] [-metrics]
//	     [-stats] [-json] [-o out.iloc] [-version] in.iloc
//
// -stats prints per-function spill statistics to stderr; -json emits the
// pipeline's full structured report (per-pass wall time, instruction
// deltas, spill statistics, cache counters) to stderr as one JSON object.
// The output is allocated ILOC, runnable with ccmsim.
//
// The fault-isolation flags: -verify-passes checkpoints IR and liveness
// invariants after every pass, attributing the first breakage to the pass
// that introduced it; -strict turns the first pass fault into a fatal
// error instead of degrading the affected function down the ladder
// (no-opt → baseline spills → no CCM); -repro-dir writes a replayable
// crash repro bundle for every fault. Recovered faults are summarized on
// stderr and make ccmc exit 3 so scripted callers can tell a degraded
// compile from a clean one.
//
// -diff-check runs the differential-execution miscompile oracle: the
// compiled program is executed against the input on deterministic
// seed-derived argument vectors and any behavioral divergence — wrong
// code, not just crashed code — is bisected to the first
// semantically-divergent pass, quarantined via the degradation ladder
// (or fatal under -strict), and written to -repro-dir as a replayable
// miscompile bundle. "final" checks the finished program once.
// -diff-vectors sets the argument vectors tried per entry function.
//
// -cache-dir enables the crash-safe persistent artifact cache: compiled
// artifacts are written atomically with SHA-256 integrity trailers and
// verified on the way back, so identical compiles are answered across
// ccmc invocations. Corrupt or torn entries are quarantined and
// recompiled — a sick cache directory can slow ccmc down but never
// change its output — and an unusable directory degrades to memory-only
// caching with a warning. -cache-bytes bounds the directory (LRU
// eviction; 0 = 256 MiB). Cache hit rates and corruption counters
// appear in the -json report's "cache" block.
//
// -trace records a span for every compile, stage, pass, cache lookup,
// and oracle run, and writes them as Chrome trace-event JSON — open the
// file at https://ui.perfetto.dev to see the per-worker timeline.
// -metrics collects named counters, gauges, and pass-latency histograms
// (register-allocator spills and coalesces, CCM promotions, cache and
// oracle activity); the snapshot appears in the -json report under
// "metrics". Counters are deterministic across -workers settings;
// span timestamps and histogram quantiles measure wall clock and are
// not. Both flags also label worker goroutines with the function and
// pass being compiled, so CPU profiles attribute samples per pass.
//
// Exit codes:
//
//	0  clean compile
//	1  fatal error (parse failure, invalid flags, strict-mode pass fault)
//	2  usage error
//	3  compile succeeded but pass faults were recovered by degradation
//	4  miscompile: the oracle observed a divergence (detected-and-
//	   quarantined in the default mode, fatal under -strict)
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"

	ccm "ccmem"
	"ccmem/internal/obs"
	"ccmem/internal/pipeline"
)

func main() {
	strategy := flag.String("strategy", "none", "spill placement: none, postpass, postpass-ipa, integrated")
	ccmBytes := flag.Int64("ccm", 512, "CCM capacity in bytes (used unless -strategy none)")
	regs := flag.Int("regs", 32, "physical registers per class")
	noOpt := flag.Bool("no-opt", false, "skip the scalar optimizer")
	noCompact := flag.Bool("no-compact", false, "skip spill-memory compaction")
	workers := flag.Int("workers", 0, "compilation worker pool size (0 = GOMAXPROCS)")
	verifyPasses := flag.Bool("verify-passes", false, "verify IR and liveness invariants after every pass")
	strict := flag.Bool("strict", false, "fail on the first pass fault instead of degrading")
	reproDir := flag.String("repro-dir", "", "write crash repro bundles for pass faults to this directory")
	diffCheck := flag.String("diff-check", "off", "differential miscompile oracle: off or final")
	diffVectors := flag.Int("diff-vectors", 0, "argument vectors per entry function for -diff-check (0 = default)")
	cacheDir := flag.String("cache-dir", "", "persistent artifact cache directory (empty = memory-only)")
	cacheBytes := flag.Int64("cache-bytes", 0, "persistent cache byte budget (0 = default)")
	stats := flag.Bool("stats", false, "print per-function spill statistics to stderr")
	jsonOut := flag.Bool("json", false, "print the pipeline report as JSON to stderr")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON span trace to this file (view at ui.perfetto.dev)")
	metrics := flag.Bool("metrics", false, "collect pass/cache/allocator metrics (reported in -json under \"metrics\")")
	out := flag.String("o", "", "output file (default stdout)")
	version := flag.Bool("version", false, "print the build version and exit")
	flag.Parse()

	if *version {
		fmt.Println(ccm.Version())
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: ccmc [flags] input.iloc")
		flag.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	prog, err := ccm.ParseProgram(string(src))
	if err != nil {
		fatal(err)
	}
	strat, err := pipeline.ParseStrategy(*strategy)
	if err != nil {
		fatal(err)
	}
	diff, err := pipeline.ParseDiffCheck(*diffCheck)
	if err != nil {
		fatal(err)
	}
	cfg := pipeline.Config{
		Strategy:          strat,
		IntRegs:           *regs,
		FloatRegs:         *regs,
		DisableOptimizer:  *noOpt,
		DisableCompaction: *noCompact,
		VerifyPasses:      *verifyPasses,
		Strict:            *strict,
		ReproDir:          *reproDir,
		DiffCheck:         diff,
		DiffVectors:       *diffVectors,
	}
	if strat != pipeline.NoCCM {
		cfg.CCMBytes = *ccmBytes
	}
	popts := pipeline.Options{Workers: *workers, CacheDir: *cacheDir, CacheBytes: *cacheBytes}
	if *traceOut != "" {
		popts.Tracer = obs.NewTracer()
	}
	if *metrics {
		popts.Metrics = obs.NewRegistry()
	}
	drv := pipeline.New(popts)
	if err := drv.DiskCacheErr(); err != nil {
		// A broken cache directory costs speed, never the compile.
		fmt.Fprintf(os.Stderr, "ccmc: warning: persistent cache disabled: %v\n", err)
	}
	writeTrace := func() {
		if *traceOut == "" {
			return
		}
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := drv.Tracer().WriteChromeTrace(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	// Ctrl-C cancels cooperatively: in-flight functions stop at the next
	// pass boundary and ccmc exits 1 without emitting partial output.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	report, err := drv.CompileContext(ctx, prog.IR(), cfg)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "ccmc: interrupted")
			os.Exit(1)
		}
		var me *pipeline.MiscompileError
		if errors.As(err, &me) {
			writeTrace() // the spans up to the divergence are still useful
			fmt.Fprintln(os.Stderr, "ccmc:", me)
			if me.ReproPath != "" {
				fmt.Fprintf(os.Stderr, "  repro bundle: %s\n", me.ReproPath)
			}
			os.Exit(4)
		}
		fatal(err)
	}
	writeTrace()
	if *stats {
		names := make([]string, 0, len(report.PerFunc))
		for n := range report.PerFunc {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fr := report.PerFunc[n]
			fmt.Fprintf(os.Stderr,
				"%-20s spilled=%-3d frame=%4dB compacted=%4dB ccm=%4dB promoted=%d\n",
				n, fr.SpilledRanges, fr.SpillBytesNaive, fr.SpillBytesCompacted,
				fr.CCMBytes, fr.PromotedWebs)
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stderr)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fatal(err)
		}
	}
	text := prog.Text()
	if *out == "" {
		fmt.Print(text)
	} else if err := os.WriteFile(*out, []byte(text), 0o644); err != nil {
		fatal(err)
	}
	if report.Failures > 0 || report.Divergences > 0 {
		if report.Divergences > 0 {
			fmt.Fprintf(os.Stderr, "ccmc: %d miscompile(s) detected and quarantined (first divergent passes: %v)\n",
				report.Divergences, report.DivergentPasses)
		}
		if report.Failures > 0 {
			fmt.Fprintf(os.Stderr, "ccmc: %d pass fault(s) recovered; %d function(s) degraded\n",
				report.Failures, report.Degraded)
		}
		names := make([]string, 0, len(report.PerFunc))
		for n := range report.PerFunc {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			if fr := report.PerFunc[n]; fr.Degraded != "" || fr.Error != "" {
				fmt.Fprintf(os.Stderr, "  %-20s degraded=%-12s pass=%-12s %s\n",
					n, fr.Degraded, fr.FailedPass, fr.Error)
			}
		}
		for _, r := range report.Repros {
			fmt.Fprintf(os.Stderr, "  repro bundle: %s\n", r)
		}
		if report.ReproError != "" {
			fmt.Fprintf(os.Stderr, "  repro bundles incomplete: %s\n", report.ReproError)
		}
		if report.Divergences > 0 {
			os.Exit(4)
		}
		os.Exit(3)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ccmc:", err)
	os.Exit(1)
}
