package main

import (
	_ "embed"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"ccmem/internal/pipeline"
	"ccmem/internal/workload"
)

// expectedTables is ccmbench's default output at the commit that defined
// the benchmark. Simulated cycles are deterministic, so every evaluation
// in every tables workload must print exactly these bytes.
//
//go:embed expected_tables.txt
var expectedTables string

type tablesMode int

const (
	modeCold   tablesMode = iota // fresh memory-only driver per pass
	modeDisk                     // fresh driver per pass on a filled cache directory
	modeRemote                   // fresh driver per pass on a filled ccmcached, no disk tier
)

// tablesSetup is what a tables workload's passes start from.
type tablesSetup struct {
	mode   tablesMode
	dir    string  // filled cache directory (warm modes)
	server *daemon // ccmcached serving dir (remote mode)
	fill   pipeline.DiskTierStats
	setup  time.Duration
}

// setupTables prepares a tables workload. Cold: build every suite input
// once (the set-up a pass needs is a fresh driver), repeated 15 times, as
// one build takes only tens of milliseconds.
// Warm: one full evaluation through a driver on a new cache directory,
// which runs the encode/fsync/rename write path; remote mode then starts
// ccmcached on that directory. Set-up time is steal-corrected.
func setupTables(b *bench, mode tablesMode) (*tablesSetup, error) {
	s := &tablesSetup{mode: mode}
	if mode == modeCold {
		var times []float64
		for i := 0; i < 15; i++ {
			sw := startWatch()
			if err := buildInputs(); err != nil {
				return nil, err
			}
			_, d := sw.stop()
			times = append(times, d.Seconds())
		}
		s.setup = time.Duration(median(times) * float64(time.Second))
		return s, nil
	}
	sw := startWatch()
	s.dir = filepath.Join(b.workDir, "store")
	drv := pipeline.New(pipeline.Options{CacheDir: s.dir})
	if err := drv.DiskCacheErr(); err != nil {
		return nil, fmt.Errorf("fill: %w", err)
	}
	text, err := evaluate(benchConfig(b.ctx, drv))
	if err != nil {
		return nil, fmt.Errorf("fill: %w", err)
	}
	rep := drv.Metrics()
	b.checkText(rep.Compiles, text, "fill evaluation")
	s.fill = rep.Cache.Disk
	if mode == modeRemote {
		if s.server, err = startDaemon(filepath.Join(b.binDir, "ccmcached"), "-dir", s.dir); err != nil {
			return nil, err
		}
	}
	_, s.setup = sw.stop()
	return s, nil
}

func buildInputs() error {
	for _, r := range workload.All() {
		if _, err := r.Build(); err != nil {
			return err
		}
	}
	for _, bp := range workload.Programs() {
		if _, err := bp.Build(); err != nil {
			return err
		}
	}
	return nil
}

func (s *tablesSetup) close() error {
	if s.server != nil {
		return s.server.stop()
	}
	return nil
}

// newDriver opens a fresh driver the way a restarted ccmbench would.
func (s *tablesSetup) newDriver(workers int) (*pipeline.Driver, error) {
	opts := pipeline.Options{Workers: workers}
	switch s.mode {
	case modeDisk:
		opts.CacheDir = s.dir
	case modeRemote:
		opts.RemoteURLs = []string{s.server.base}
	}
	drv := pipeline.New(opts)
	if err := drv.DiskCacheErr(); err != nil {
		return nil, err
	}
	return drv, drv.RemoteCacheErr()
}

// checkText counts one evaluation of n compiles, all failed when its
// printed tables differ from the expected copy.
func (b *bench) checkText(n int64, text, what string) {
	if text == expectedTables {
		b.attempt(n, 0, "")
		return
	}
	b.attempt(n, n, what+": evaluation text differs from expected_tables.txt")
}

// timedTables alternates two measurements until the run's time is up: an
// evaluation pass through the experiments entry points (suite_s, rps) and
// a walk of the same calls made one by one, which times each compile
// (p50_ms, p99_ms). Alternating them lets both sample the same stretch of
// host time. Every walk makes the same compiles in the same order, so each
// compile's latency is first taken as its median over the walks, and the
// percentiles are taken over those medians: a pause that lands on one
// compile in one walk then moves neither. All timings are steal-corrected;
// the raw pass wall times go into the result record.
//
// The walks compile on one worker, as the traced walks do: with one
// compile in flight, a second worker mostly adds cross-CPU wake-ups, whose
// cost on a virtual machine varied between runs far more than the compile
// work did.
func timedTables(b *bench, mode tablesMode) error {
	s, err := setupTables(b, mode)
	if err != nil {
		return err
	}
	defer s.close()

	var suite, rps, raw, p50s, p99s []float64
	var walks [][]float64
	start := time.Now()
	for len(suite) == 0 || time.Since(start) < b.seconds {
		drv, err := s.newDriver(0)
		if err != nil {
			return err
		}
		runtime.GC() // start each pass without the previous round's garbage
		sw := startWatch()
		text, err := evaluate(benchConfig(b.ctx, drv))
		wall, d := sw.stop()
		if err != nil {
			return fmt.Errorf("evaluation pass: %w", err)
		}
		n := drv.Metrics().Compiles
		b.checkText(n, text, "evaluation pass")
		suite = append(suite, d.Seconds())
		rps = append(rps, float64(n)/d.Seconds())
		raw = append(raw, wall.Seconds())

		if drv, err = s.newDriver(1); err != nil {
			return err
		}
		w := newWalker(b.ctx, drv, nil)
		runtime.GC()
		sw = startWatch()
		text, err = w.evaluate()
		wall, d = sw.stop()
		if err != nil {
			return fmt.Errorf("latency walk: %w", err)
		}
		b.checkText(w.counts.Compiles, text, "latency walk")
		lat := millis(w.compileLat, d.Seconds()/wall.Seconds())
		if len(walks) > 0 && len(lat) != len(walks[0]) {
			return fmt.Errorf("latency walk made %d compiles, the first made %d", len(lat), len(walks[0]))
		}
		walks = append(walks, lat)
		p50s = append(p50s, quantile(lat, 0.50))
		p99s = append(p99s, quantile(lat, 0.99))
	}
	if err := s.close(); err != nil {
		b.attempt(1, 1, err.Error())
	}

	lat := pointwiseMedians(walks)
	b.set("setup_s", s.setup.Seconds(), "s")
	b.set("suite_s", median(suite), "s")
	b.set("rps", median(rps), "1/s")
	b.set("p50_ms", quantile(lat, 0.50), "ms")
	b.set("p99_ms", quantile(lat, 0.99), "ms")
	b.details["pass_s"] = suite
	b.details["pass_wall_s"] = raw
	b.details["walk_p50_ms"] = p50s
	b.details["walk_p99_ms"] = p99s
	b.details["compiles_per_walk"] = len(lat)
	b.details["walks"] = len(walks)
	return nil
}

// tracedTables is the traced run: one untraced walk for reference, then
// two traced walks whose counts must repeat exactly. All three use one
// worker, so the spans of a compile add up to its wall time.
func tracedTables(b *bench, mode tablesMode) error {
	s, err := setupTables(b, mode)
	if err != nil {
		return err
	}
	defer s.close()

	walk := func(led ledger) (*walker, *pipeline.Report, time.Duration, error) {
		drv, err := s.newDriver(1)
		if err != nil {
			return nil, nil, 0, err
		}
		w := newWalker(b.ctx, drv, led)
		t := time.Now()
		text, err := w.evaluate()
		d := time.Since(t)
		if err != nil {
			return nil, nil, 0, err
		}
		b.checkText(w.counts.Compiles, text, "traced walk")
		for _, e := range w.replayErrs {
			b.attempt(1, 1, e)
		}
		return w, drv.Metrics(), d, nil
	}
	_, _, plain, err := walk(nil)
	if err != nil {
		return err
	}
	led := ledger{}
	w, rep, wall, err := walk(led)
	if err != nil {
		return err
	}
	again, _, _, err := walk(ledger{})
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(w.counts, again.counts) {
		b.attempt(1, 1, fmt.Sprintf("counts differ between two traced walks of one seed: %+v vs %+v", w.counts, again.counts))
	} else {
		b.attempt(1, 0, "")
	}
	if err := s.close(); err != nil {
		b.attempt(1, 1, err.Error())
	}

	v := map[string]float64{}
	passLayers(v, led, w.counts)
	cacheLayers(v, rep)
	v["diskcache.writes"] = float64(s.fill.Writes)
	v["diskcache.bytes"] = float64(s.fill.Bytes)
	v["sim.busy_s"] = led.seconds("sim")
	v["sim.instrs"] = float64(w.counts.SimInstrs)
	if sb := led.seconds("sim"); sb > 0 {
		v["sim.minstrs_per_s"] = float64(w.counts.SimInstrs) / sb / 1e6
	}
	v["workload.build_s"] = led.seconds("workload.build")
	v["pipeline.compile_s"] = led.seconds("pipeline.compile")
	v["pipeline.lookup_s"] = led.seconds("pipeline.lookup")
	top := 0.0
	for _, n := range []string{"workload.build", "pipeline.compile", "sim", "replay"} {
		top += led.seconds(n)
	}
	v["unattributed_share"] = (wall.Seconds() - top) / wall.Seconds()
	traced := wall - led["replay"]
	v["trace_overhead_share"] = (traced.Seconds() - plain.Seconds()) / plain.Seconds()
	b.setLayers(v)
	b.details["walk_s"] = wall.Seconds()
	b.details["untraced_walk_s"] = plain.Seconds()
	b.details["replay_s"] = led.seconds("replay")
	return nil
}
