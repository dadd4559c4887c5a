// Command ccmbench regenerates the paper's evaluation: Tables 1-4,
// Figures 3-4, and the §4.3 memory-hierarchy ablation, over the synthetic
// workload suite.
//
// Usage:
//
//	ccmbench [-table N] [-figure N] [-ablation] [-multiproc] [-markdown]
//	         [-memcost N] [-workers N] [-json]
//	         [-verify-passes] [-repro-dir DIR]
//	         [-cache-dir DIR] [-cache-bytes N] [-remote-url URL]
//	         [-trace out.json] [-metrics-out FILE]
//
// The fault-isolation flags harden long benchmark runs: -verify-passes
// checkpoints compiler invariants after every pass, and -repro-dir
// captures a replayable bundle for any pass fault. Benchmarks always
// compile in strict mode — silently degraded code would skew the tables
// — so a fault aborts the run (after writing its bundle) rather than
// polluting the measurements.
// For the same reason the differential miscompile oracle is always on:
// every measured compile is executed against its input on deterministic
// argument vectors, and a divergence — wrong code that parses, verifies,
// and runs — aborts the run with the first divergent pass named instead
// of silently skewing a table.
//
// Without selection flags it prints everything. Every measurement runs
// through one shared compilation driver (internal/pipeline), so compile
// artifacts are cached across tables and figures; -cache-dir extends
// that cache across ccmbench invocations via the crash-safe persistent
// tier (integrity-verified, LRU-bounded by -cache-bytes), so a repeat
// run skips every compile that hasn't changed. -json prints the
// driver's cumulative report (per-pass wall time, per-tier cache
// hit/miss counters and the computed hit rate) to stderr after the run.
//
// -workers bounds both the driver's per-function worker pool and how
// many inputs (routines, programs, ablation routines, processes) the
// evaluation measures at once; the output, cache hits and counters are
// the same at any bound.
//
// -metrics-out writes that same cumulative report — plus the metrics
// registry snapshot (pass-latency histograms, allocator and CCM
// counters) — to a file. -trace records a span for every compile, pass,
// cache lookup, and oracle run across the whole evaluation and writes
// Chrome trace-event JSON viewable at https://ui.perfetto.dev.
//
// -remote-url adds the remote HTTP cache tier (a ccmcached server) to
// the driver's read path, so several ccmbench processes share compiles;
// a sick or absent server costs time, never bytes.
//
// SIGINT/SIGTERM cancels the run cooperatively: in-flight compiles stop
// at the next pass boundary and ccmbench exits 1 instead of running the
// remaining tables. -version prints the build identity (module version,
// VCS revision, toolchain) and exits.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	ccm "ccmem"
	"ccmem/internal/experiments"
	"ccmem/internal/obs"
	"ccmem/internal/pipeline"
)

func main() {
	table := flag.Int("table", 0, "print only table N (1-4)")
	figure := flag.Int("figure", 0, "print only figure N (3 or 4)")
	ablation := flag.Bool("ablation", false, "print only the §4.3 ablation")
	multiproc := flag.Bool("multiproc", false, "print only the §2.1 multi-process comparison")
	markdown := flag.Bool("markdown", false, "emit the full evaluation as a markdown report")
	memCost := flag.Int("memcost", 2, "cycles per main-memory operation")
	workers := flag.Int("workers", 0, "compilation worker pool size, which also caps how many inputs the evaluation measures at once (0 = GOMAXPROCS)")
	jsonOut := flag.Bool("json", false, "print the cumulative pipeline report as JSON to stderr")
	verifyPasses := flag.Bool("verify-passes", false, "verify IR and liveness invariants after every compilation pass")
	reproDir := flag.String("repro-dir", "", "write crash repro bundles for pass faults to this directory")
	cacheDir := flag.String("cache-dir", "", "persistent artifact cache directory (empty = memory-only)")
	cacheBytes := flag.Int64("cache-bytes", 0, "persistent cache byte budget (0 = default)")
	remoteURL := flag.String("remote-url", "", "remote cache server base URL (empty = no remote tier)")
	remoteToken := flag.String("remote-token", "", "bearer token for the remote cache server (empty = none)")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON span trace of every compile to this file")
	metricsOut := flag.String("metrics-out", "", "write the cumulative pipeline report (pass wall times, cache hit rates, counters) as JSON to this file")
	version := flag.Bool("version", false, "print the build version and exit")
	flag.Parse()

	if *version {
		fmt.Println(ccm.Version())
		return
	}

	// Ctrl-C stops the evaluation at the next pass boundary instead of
	// leaving half a table on a dead terminal.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := experiments.Default()
	cfg.Ctx = ctx
	cfg.MemCost = *memCost
	popts := pipeline.Options{
		Workers: *workers, CacheDir: *cacheDir, CacheBytes: *cacheBytes,
		RemoteToken: *remoteToken,
	}
	if *remoteURL != "" {
		popts.RemoteURLs = []string{*remoteURL}
	}
	if *traceOut != "" {
		popts.Tracer = obs.NewTracer()
	}
	if *metricsOut != "" {
		popts.Metrics = obs.NewRegistry()
	}
	cfg.Driver = pipeline.New(popts)
	if err := cfg.Driver.DiskCacheErr(); err != nil {
		fmt.Fprintf(os.Stderr, "ccmbench: warning: persistent cache disabled: %v\n", err)
	}
	if err := cfg.Driver.RemoteCacheErr(); err != nil {
		fmt.Fprintf(os.Stderr, "ccmbench: warning: remote cache disabled: %v\n", err)
	}
	cfg.VerifyPasses = *verifyPasses
	cfg.ReproDir = *reproDir
	cfg.Strict = true
	// Strict benchmarking distrusts wrong code as much as crashed code.
	cfg.DiffCheck = pipeline.DiffFinal
	defer func() {
		// Drain the remote write-behind queue so this process's artifacts
		// reach the server before the run's accounting is written.
		fctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := cfg.Driver.CloseRemote(fctx); err != nil {
			fmt.Fprintf(os.Stderr, "ccmbench: warning: remote cache flush: %v\n", err)
		}
		if *jsonOut {
			enc := json.NewEncoder(os.Stderr)
			enc.SetIndent("", "  ")
			if err := enc.Encode(cfg.Driver.Metrics()); err != nil {
				fatal(err)
			}
		}
		if *metricsOut != "" {
			buf, err := json.MarshalIndent(cfg.Driver.Metrics(), "", "  ")
			if err != nil {
				fatal(err)
			}
			if err := os.WriteFile(*metricsOut, append(buf, '\n'), 0o644); err != nil {
				fatal(err)
			}
		}
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				fatal(err)
			}
			if err := cfg.Driver.Tracer().WriteChromeTrace(f); err != nil {
				f.Close()
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}
	}()

	if *markdown {
		if err := experiments.WriteReport(os.Stdout, cfg); err != nil {
			fatal(err)
		}
		return
	}

	all := *table == 0 && *figure == 0 && !*ablation && !*multiproc

	if *multiproc || all {
		m, err := experiments.MultiProcess(cfg, nil, 1024)
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiments.FormatMultiProc(m))
		if *multiproc {
			return
		}
	}

	if *ablation || all {
		rows, err := experiments.Ablation43(cfg, nil)
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiments.FormatAblation(rows))
		if *ablation {
			return
		}
	}

	res, err := experiments.RunSuite(cfg)
	if err != nil {
		fatal(err)
	}
	switch {
	case *table == 1:
		fmt.Println(res.FormatTable1())
	case *table == 2:
		fmt.Println(res.FormatTable2(512))
	case *table == 3:
		fmt.Println(res.FormatTable3(512, 1024))
	case *table == 4:
		fmt.Println(res.FormatTable4())
	case *table != 0:
		fatal(fmt.Errorf("no table %d", *table))
	case *figure == 3:
		fmt.Println(res.FormatFigure(3, 512))
	case *figure == 4:
		fmt.Println(res.FormatFigure(4, 1024))
	case *figure != 0:
		fatal(fmt.Errorf("no figure %d", *figure))
	default:
		fmt.Println(res.FormatTable1())
		fmt.Println(res.FormatTable2(512))
		fmt.Println(res.FormatTable3(512, 1024))
		fmt.Println(res.FormatTable4())
		fmt.Println(res.FormatFigure(3, 512))
		fmt.Println(res.FormatFigure(4, 1024))
	}
}

func fatal(err error) {
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "ccmbench: interrupted")
	} else {
		fmt.Fprintln(os.Stderr, "ccmbench:", err)
	}
	os.Exit(1)
}
