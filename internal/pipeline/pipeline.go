// Package pipeline is the compilation driver: it owns the pass sequence
// that turns verified input ILOC into allocated, CCM-promoted, compacted
// output (optimize → register allocation → CCM promotion → compaction →
// verification) and adds the things the inline driver in ccm.go never
// had:
//
//   - per-function parallelism: functions are independent before and
//     after the interprocedural CCM partitioning step, so the front
//     (optimize + allocate) and back (compact) stages run on a bounded
//     worker pool; only the call-graph-driven post-pass promotion is a
//     sequential whole-program barrier;
//   - a content-addressed compile cache keyed by SHA-256 over a canonical
//     encoding of (function IR, relevant Config fields), with whole-program
//     entries layered on top, so repeated compiles — the dominant cost in
//     experiment sweeps — are near-free; Options.CacheDir adds a
//     crash-safe persistent disk tier (internal/diskcache) behind the
//     memory LRU, so artifacts also survive process restarts, with
//     integrity verified on every read and corruption degrading to a
//     recompile, never to wrong output;
//   - observability: per-pass wall time, instruction deltas, per-function
//     spill statistics and cache hit/miss counters, exported as a
//     structured Report that the CLIs print as JSON;
//   - fault isolation: every per-function pass runs under recover(), so a
//     panicking pass becomes a structured *CompileError naming the pass,
//     function, and stack instead of killing the worker pool; Compile
//     accepts a context with per-function timeouts and cooperative
//     cancellation at pass boundaries; an optional verification mode
//     (Config.VerifyPasses) checkpoints IR and liveness invariants after
//     every pass and attributes the first breakage to the pass that
//     introduced it; and a faulting function is quarantined one rung down
//     a degradation ladder (first without optimization, then on the
//     baseline spill-to-RAM path) and the program recompiled, so one bad
//     function degrades instead of failing the program. Failed attempts
//     are captured as replayable crash repro bundles (Config.ReproDir,
//     internal/repro).
//
// Compile never writes its input: the compiled functions replace p.Funcs
// on success, and p is unchanged on error. A stage clones a function
// before its first rewrite (the front stage on a cache miss, the barrier
// and the back stage when the function is a frozen, shared artifact), so
// a caller can compile one input under any number of configurations.
//
// Parallel compilation is deterministic: every pass mutates only its own
// function, so workers=N produces bit-identical output to workers=1 (the
// package test suite asserts this under the race detector, including for
// degraded functions). The one documented exception is timeout-induced
// degradation, which depends on wall-clock scheduling.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ccmem/internal/core"
	"ccmem/internal/diskcache"
	"ccmem/internal/ir"
	"ccmem/internal/obs"
	"ccmem/internal/opt"
	"ccmem/internal/oracle"
	"ccmem/internal/regalloc"
	"ccmem/internal/remotecache"
	"ccmem/internal/repro"
	"ccmem/internal/sim"
)

// Strategy selects how register spills are placed. The values mirror the
// paper's three CCM algorithms plus the no-CCM baseline (ccm.Strategy is
// the public-facade twin of this type).
type Strategy int

const (
	// NoCCM spills to the activation record only (the baseline).
	NoCCM Strategy = iota
	// PostPass promotes spills with the stand-alone intraprocedural CCM
	// allocator.
	PostPass
	// PostPassInterproc adds the bottom-up call-graph walk.
	PostPassInterproc
	// Integrated assigns CCM locations during spill-code insertion inside
	// the Chaitin-Briggs allocator.
	Integrated
)

func (s Strategy) String() string {
	switch s {
	case NoCCM:
		return "none"
	case PostPass:
		return "postpass"
	case PostPassInterproc:
		return "postpass-ipa"
	case Integrated:
		return "integrated"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// ParseStrategy converts a command-line name into a Strategy.
func ParseStrategy(s string) (Strategy, error) {
	switch s {
	case "none":
		return NoCCM, nil
	case "postpass":
		return PostPass, nil
	case "postpass-ipa", "ipa":
		return PostPassInterproc, nil
	case "integrated":
		return Integrated, nil
	}
	return NoCCM, fmt.Errorf("unknown strategy %q (want none, postpass, postpass-ipa, integrated)", s)
}

// InjectedPass is an experimental per-function pass run between the
// scalar optimizer and the register allocator — the hook an RL-driven or
// otherwise untrusted transform plugs into. Injected passes run under the
// same isolation as built-in passes (recover, checkpoints, the
// degradation ladder), and the first rung of the ladder drops them, so a
// crashing experiment can never take the toolchain down. The context is
// the per-function compile context; long-running passes should honor it.
type InjectedPass struct {
	Name string
	Fn   func(ctx context.Context, f *ir.Func) error
}

// Config parameterizes one compilation. The zero value compiles like the
// paper's baseline: 32+32 registers, optimizer on, compaction on, no CCM.
type Config struct {
	Strategy Strategy
	CCMBytes int64 // capacity of the CCM; required unless Strategy is NoCCM

	IntRegs   int // default 32
	FloatRegs int // default 32

	DisableOptimizer  bool // skip the scalar optimizer
	DisableCompaction bool // skip spill-memory compaction (and the whole back stage)

	// Fault isolation & graceful degradation.

	// VerifyPasses runs ir.VerifyFunc plus the liveness-consistency check
	// as a checkpoint after every per-function pass (and once on the
	// input), attributing the first broken invariant to the pass that
	// introduced it.
	VerifyPasses bool
	// FuncTimeout bounds each per-function compile attempt. The deadline
	// is checked cooperatively at pass boundaries and passed to injected
	// passes; a built-in pass that loops forever cannot be preempted. On
	// expiry the attempt fails and the function degrades one rung like any
	// other fault (timeout-induced degradation is wall-clock dependent and
	// therefore not deterministic). 0 means no limit.
	FuncTimeout time.Duration
	// Strict fails the whole compile on the first fault instead of
	// degrading (repro bundles are still written).
	Strict bool
	// ReproDir, when non-empty, receives one crash repro bundle
	// (internal/repro) per failed attempt.
	ReproDir string
	// InjectFront holds experimental passes run between optimize and
	// regalloc. Closures cannot be content-addressed, so any injected
	// pass disables the compile cache for the whole Compile.
	InjectFront []InjectedPass `json:"-"`

	// DiffCheck runs the differential-execution miscompile oracle
	// (internal/oracle) against the input program: DiffFinal once on the
	// compiled output. A divergence is reproduced by one more attempt that
	// runs every pass uncached and snapshots it, and bisected across those
	// snapshots to the first semantically-divergent pass; in Strict mode it
	// fails the compile with a *MiscompileError, otherwise the culprit
	// function is forced down the degradation ladder and the compile
	// retries. Front and back artifacts are served and stored as in an
	// unchecked compile; whole-program artifacts are stored only for
	// divergence-free compiles.
	DiffCheck DiffCheck
	// DiffVectors is the number of argument vectors per checked entry
	// function (0 = the oracle default of 3).
	DiffVectors int

	// passHook is a test seam: it is invoked inside the guarded body of
	// every per-function pass and as the interprocedural barrier reaches
	// each function, and may panic to simulate a pass fault.
	passHook func(pass, fn string)
}

// DefaultRegs is the register count of a class whose Config count is 0.
const DefaultRegs = 32

func (c Config) withDefaults() Config {
	if c.IntRegs == 0 {
		c.IntRegs = DefaultRegs
	}
	if c.FloatRegs == 0 {
		c.FloatRegs = DefaultRegs
	}
	return c
}

func (c Config) validate() error {
	if c.Strategy != NoCCM && c.CCMBytes <= 0 {
		return fmt.Errorf("pipeline: strategy %v requires CCMBytes > 0", c.Strategy)
	}
	if c.CCMBytes < 0 || c.CCMBytes%ir.WordBytes != 0 || c.CCMBytes > sim.MaxCCMBytes {
		return fmt.Errorf("pipeline: CCMBytes must be a multiple of %d in [0, %d], got %d", ir.WordBytes, sim.MaxCCMBytes, c.CCMBytes)
	}
	if c.IntRegs < 0 || c.FloatRegs < 0 {
		return fmt.Errorf("pipeline: register counts must be >= 0, got IntRegs %d, FloatRegs %d", c.IntRegs, c.FloatRegs)
	}
	if c.IntRegs > ir.MaxRegs-c.FloatRegs { // the sum could overflow
		return fmt.Errorf("pipeline: IntRegs + FloatRegs must be <= %d, got %d + %d", ir.MaxRegs, c.IntRegs, c.FloatRegs)
	}
	if c.FuncTimeout < 0 {
		return fmt.Errorf("pipeline: FuncTimeout must be >= 0, got %v", c.FuncTimeout)
	}
	for _, ip := range c.InjectFront {
		if ip.Name == "" || ip.Fn == nil {
			return fmt.Errorf("pipeline: injected pass must have a name and a body")
		}
	}
	if c.DiffCheck < DiffOff || c.DiffCheck > DiffFinal {
		return fmt.Errorf("pipeline: unknown DiffCheck mode %d", int(c.DiffCheck))
	}
	if c.DiffVectors < 0 {
		return fmt.Errorf("pipeline: DiffVectors must be >= 0, got %d", c.DiffVectors)
	}
	return nil
}

// Options configure a Driver.
type Options struct {
	// Workers bounds the per-function worker pool; 0 means GOMAXPROCS.
	Workers int
	// Cache is the artifact store shared by every Compile on this driver.
	// nil creates a private cache of DefaultCacheEntries; to share one
	// cache across drivers, pass the same *Cache to each.
	Cache *Cache
	// DisableCache turns content-addressed artifact caching off entirely
	// (including the disk tier). The oracle's observation memo is not an
	// artifact tier and stays on.
	DisableCache bool

	// CacheDir enables the persistent disk tier (internal/diskcache)
	// under the given directory: artifacts survive process restarts, and
	// a second driver opened on the same directory serves them without
	// recompiling. Opening the tier can fail (unwritable path, sick
	// disk); the driver then runs memory-only and reports the cause via
	// DiskCacheErr — a broken disk tier never fails compilation.
	CacheDir string
	// CacheBytes is the disk tier's byte budget, evicted LRU-by-access;
	// <= 0 uses diskcache.DefaultMaxBytes.
	CacheBytes int64
	// DiskFS overrides the filesystem the disk tier runs on — the fault
	// injection seam (diskcache.FaultFS). nil uses the real filesystem.
	DiskFS diskcache.FS

	// RemoteURLs enables the remote HTTP tier (internal/remotecache):
	// one ccmcached base URL consulted after a disk miss, behind a
	// circuit breaker, with hits promoted into the upper tiers and
	// stores written behind asynchronously. Like the disk tier it is an
	// accelerator, not a dependency: a sick or absent server costs
	// time, never bytes, and never fails a compile. Empty disables the
	// tier; a malformed URL or more than one URL is reported via
	// RemoteCacheErr and the driver runs without the tier.
	RemoteURLs []string
	// RemoteToken is the bearer token sent with every remote-tier
	// request — required when ccmcached runs with -auth-token. Empty
	// sends no Authorization header.
	RemoteToken string
	// RemoteFaultRT overrides the remote tier's transport — the network
	// fault-injection seam (remotecache.FaultRT). nil uses the real
	// transport.
	RemoteFaultRT http.RoundTripper
	// RemoteTuning adjusts the remote client's hardening knobs (timeouts,
	// retries, breaker thresholds); zero fields take remotecache defaults.
	RemoteTuning remotecache.Tuning

	// Tracer, when non-nil, records a span for every compile, stage,
	// pass, cache lookup, oracle run, and repro write on this driver.
	// Workers record into lock-free per-worker shards; export the merged,
	// deterministically ordered result with Tracer.WriteChromeTrace after
	// the compiles of interest have returned. nil disables tracing at
	// ~zero cost.
	Tracer *obs.Tracer
	// Metrics, when non-nil, receives named counters, gauges, and
	// per-pass latency histograms from every subsystem the driver runs
	// (regalloc, CCM promotion, compaction, opt, oracle, both cache
	// tiers). Counter and gauge values are deterministic across worker
	// counts; histogram bucket placements are wall-clock and are not.
	// nil disables metrics at ~zero cost.
	Metrics *obs.Registry
	// PprofLabels runs every pass body under runtime/pprof.Do with
	// ccm_func/ccm_pass labels, so CPU profiles attribute samples to
	// passes and functions.
	PprofLabels bool
}

// Driver is a reusable compilation pipeline. It is safe for concurrent
// use; the cache and cumulative metrics are shared across Compile calls.
type Driver struct {
	workers   int
	cache     *Cache // nil when caching is disabled
	diskErr   error  // why the disk tier failed to open (nil when absent or healthy)
	remoteErr error  // why the remote tier failed to build (nil when absent or healthy)

	tracer *obs.Tracer   // nil when tracing is off
	reg    *obs.Registry // nil when metrics are off
	labels bool          // run pass bodies under pprof labels

	memo *oracle.Memo // oracle observations shared by every checked compile

	mu          sync.Mutex
	cum         *metrics // cumulative per-pass totals across compiles
	compiles    int64
	funcsTotal  int64
	wallTotal   int64
	programHits int64
	failures    int64
	degraded    int64

	// Cumulative differential-oracle totals across compiles.
	diffChecked      int64
	diffRuns         int64
	diffInconclusive int64
	divergences      int64
	divergentPasses  map[string]int64
}

// New builds a Driver.
func New(opts Options) *Driver {
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	d := &Driver{
		workers:         w,
		cum:             newMetrics(nil), // cumulative totals never re-observe histograms
		divergentPasses: map[string]int64{},
		tracer:          opts.Tracer,
		reg:             opts.Metrics,
		labels:          opts.PprofLabels,
		memo:            oracle.NewMemo(),
	}
	if !opts.DisableCache {
		d.cache = opts.Cache
		if d.cache == nil {
			d.cache = NewCache(DefaultCacheEntries)
		}
		if opts.CacheDir != "" {
			dc, err := diskcache.Open(opts.CacheDir, diskcache.Options{
				MaxBytes: opts.CacheBytes,
				FS:       opts.DiskFS,
			})
			if err != nil {
				// The disk tier is an accelerator, not a dependency: if it
				// cannot open, compile memory-only and say why on request.
				d.diskErr = err
			} else {
				d.cache.AttachDisk(dc)
			}
		}
		if n := len(opts.RemoteURLs); n > 1 {
			// Same contract as the disk tier: no remote, no failure.
			d.remoteErr = fmt.Errorf("pipeline: %d remote cache URLs; the remote tier takes one", n)
		} else if n == 1 {
			rc, err := remotecache.NewClient(remotecache.Options{
				BaseURL:      opts.RemoteURLs[0],
				RoundTripper: opts.RemoteFaultRT,
				AuthToken:    opts.RemoteToken,
				Obs:          opts.Metrics,
				Tuning:       opts.RemoteTuning,
			})
			if err != nil {
				d.remoteErr = err
			} else {
				d.cache.AttachRemote(rc)
			}
		}
	}
	return d
}

// Workers returns the worker-pool bound.
func (d *Driver) Workers() int { return d.workers }

// Cache returns the driver's artifact store (nil when disabled).
func (d *Driver) Cache() *Cache { return d.cache }

// DiskCacheErr reports why the persistent tier requested via
// Options.CacheDir could not be opened; nil when it is healthy or was
// never requested. The driver compiles either way.
func (d *Driver) DiskCacheErr() error { return d.diskErr }

// RemoteCacheErr reports why the remote tier requested via
// Options.RemoteURLs could not be built; nil when it is attached or was
// never requested. The driver compiles either way.
func (d *Driver) RemoteCacheErr() error { return d.remoteErr }

// RemoteCircuit reports the remote tier's circuit-breaker state
// ("closed", "half-open", or "open"); "" when no remote tier is
// attached. Operators read this off /metrics and /readyz — an open
// circuit means the tier is being skipped, not that the service is
// down.
func (d *Driver) RemoteCircuit() string {
	if d.cache == nil {
		return ""
	}
	rc := d.cache.Remote()
	if rc == nil {
		return ""
	}
	return rc.State().String()
}

// CloseRemote drains the remote tier's write-behind queue (bounded by
// ctx) and shuts its worker down — the exit barrier a process runs so
// its artifacts reach the server before it reports. Safe to call when no
// remote tier is attached; compiles after CloseRemote still read from
// the tier but no longer store into it.
func (d *Driver) CloseRemote(ctx context.Context) error {
	if d.cache == nil {
		return nil
	}
	rc := d.cache.Remote()
	if rc == nil {
		return nil
	}
	err := rc.Flush(ctx)
	if cerr := rc.Close(); err == nil {
		err = cerr
	}
	return err
}

// Tracer returns the span tracer this driver records into (nil when
// tracing is off).
func (d *Driver) Tracer() *obs.Tracer { return d.tracer }

// Registry returns the metrics registry this driver records into (nil
// when metrics are off).
func (d *Driver) Registry() *obs.Registry { return d.reg }

// labeled runs body under pprof labels naming the function and pass,
// when Options.PprofLabels is on; otherwise it calls body directly. The
// labeled context is handed to body so injected passes (and nested
// pprof.Do calls) observe the labels.
func (d *Driver) labeled(ctx context.Context, fn, pass string, body func(context.Context)) {
	if !d.labels {
		body(ctx)
		return
	}
	pprof.Do(ctx, pprof.Labels("ccm_func", fn, "ccm_pass", pass), body)
}

// funcState carries one function's results from stage to stage within
// one compile attempt.
type funcState struct {
	fr       FuncReport
	frontHit bool
	backHit  bool
	fault    *CompileError // recoverable fault, escalated once the stage joins
}

// compileState is the shared state of one Compile: its input, its
// per-function cache tier, pass metrics, the quarantine the attempt loop
// accumulates, and the failure counter and repro bundles, updated from
// worker goroutines.
type compileState struct {
	cfg     Config
	in      *ir.Program // the input as given; no pass writes its functions
	cache   *Cache      // per-function artifact tier (nil when off, and in a bisect attempt)
	digests []digest    // the input functions' digests, for front keys (nil when caching is off)
	m       *metrics    // per-pass statistics
	// forced is written on the driver goroutine between stages only;
	// workers read it.
	forced *forcedDegrade

	// snaps records per-pass function snapshots in an attempt that
	// reproduces a divergence to bisect it (nil otherwise). Front and back
	// slots are per-function, so parallel workers write disjoint entries.
	snaps *snapRecorder

	failures atomic.Int64

	mu       sync.Mutex
	repros   []string
	reproErr error
}

// fault records a recoverable fault of a per-function stage: the failure
// is counted and bundled now, and st keeps the fault for the driver to
// escalate once the stage joins, so the driver sees every fault of the
// stage in function order whatever the scheduling. Only cancellation
// ends the stage early.
func (cs *compileState) fault(ctx context.Context, st *funcState, cerr *CompileError, passes []string, sh *obs.Shard) error {
	cs.recordFailure(cerr, passes, sh)
	if ctx.Err() != nil {
		return cerr
	}
	st.fault = cerr
	return nil
}

// recordFailure counts one failed attempt and, when a repro directory is
// configured, writes the replayable bundle for it (emitting a
// "repro:write" span on sh).
func (cs *compileState) recordFailure(cerr *CompileError, passes []string, sh *obs.Shard) {
	cs.failures.Add(1)
	if cs.cfg.ReproDir == "" {
		return
	}
	b := &repro.Bundle{
		Kind:    repro.KindCompile,
		Func:    cerr.Func,
		Pass:    cerr.Pass,
		Level:   cerr.Level,
		Passes:  passes,
		Program: cs.in.String(),
		Config:  marshalConfig(cs.cfg),
		Error:   cerr.Err.Error(),
		Stack:   string(cerr.Stack),
	}
	cs.writeRepro(b, sh)
}

// writeRepro writes one bundle to the repro directory, emitting a
// "repro:write" span on sh, and returns its path ("" when the write
// failed; the first such error is reported in Report.ReproError).
func (cs *compileState) writeRepro(b *repro.Bundle, sh *obs.Shard) string {
	var t0 time.Time
	if sh != nil {
		t0 = time.Now()
	}
	path, err := repro.Write(cs.cfg.ReproDir, b)
	if sh != nil {
		sh.Record("repro:write", "repro", t0, time.Since(t0),
			obs.Attr{Key: "func", Value: b.Func}, obs.Attr{Key: "pass", Value: b.Pass})
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if err != nil {
		if cs.reproErr == nil {
			cs.reproErr = err
		}
		return ""
	}
	cs.repros = append(cs.repros, path)
	return path
}

// Compile runs the full pass sequence on p and returns the structured
// report. p must be verified input ILOC (unallocated). On success the
// compiled functions replace p.Funcs; the input's functions are never
// written, and on error p is unchanged.
func (d *Driver) Compile(p *ir.Program, cfg Config) (*Report, error) {
	return d.CompileContext(context.Background(), p, cfg)
}

// CompileContext is Compile with cooperative cancellation: ctx is checked
// between passes and between functions, and is the parent of every
// per-function timeout. On cancellation the in-flight passes finish (or
// fail their next boundary check), the first context error is returned
// and p is unchanged; no goroutines outlive the call. On success the
// compiled functions replace p.Funcs, as in Compile.
func (d *Driver) CompileContext(ctx context.Context, p *ir.Program, cfg Config) (*Report, error) {
	return d.compile(ctx, p, cfg, d.tracer)
}

// CompileTraced is CompileContext with a per-compile tracer: spans for
// this compile alone are recorded into tr instead of the driver's
// tracer, while the cache, metrics registry, and cumulative totals stay
// shared. This is how a long-running service traces one request through
// a shared driver without either exporting every other request's spans
// or racing a live tracer's shards at export time — the caller owns tr,
// and once this call returns no shard of it is recording, so exporting
// it is safe. A nil tr falls back to the driver's tracer. As in Compile,
// the compiled functions replace p.Funcs on success, and p is unchanged
// on error.
func (d *Driver) CompileTraced(ctx context.Context, p *ir.Program, cfg Config, tr *obs.Tracer) (*Report, error) {
	if tr == nil {
		tr = d.tracer
	}
	return d.compile(ctx, p, cfg, tr)
}

func (d *Driver) compile(ctx context.Context, p *ir.Program, cfg Config, tracer *obs.Tracer) (*Report, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	// One span shard per logical worker, all per-compile: the main
	// goroutine records into tid 0, pool worker w into tid w+1. Shards
	// are single-owner, so recording is lock-free; concurrent Compiles
	// each get their own set.
	mainSh := tracer.NewShard(0)
	var workerShards []*obs.Shard
	if tracer != nil {
		workerShards = make([]*obs.Shard, d.workers)
		for w := range workerShards {
			workerShards[w] = tracer.NewShard(w + 1)
		}
	}
	shardFor := func(w int) *obs.Shard {
		if workerShards == nil {
			return nil
		}
		return workerShards[w]
	}
	rep := &Report{
		Strategy: cfg.Strategy.String(),
		Workers:  d.workers,
		Funcs:    len(p.Funcs),
		PerFunc:  make(map[string]FuncReport, len(p.Funcs)),
	}
	// Injected passes are closures and cannot be content-addressed, so
	// they opt the whole compile out of the cache.
	cache := d.cache
	if len(cfg.InjectFront) > 0 {
		cache = nil
	}
	cs := &compileState{cfg: cfg, m: newMetrics(d.reg), forced: newForcedDegrade()}

	// One walk of the input digests every function and the program; the
	// program key, the oracle's seed and every front key derive from those
	// digests.
	var pd, progKey digest
	if cache != nil {
		cs.digests = make([]digest, len(p.Funcs))
		pd = programDigest(p, cs.digests)
	} else if cfg.DiffCheck != DiffOff {
		pd = programDigest(p, nil)
	}

	// Whole-program cache: a repeat compile of an identical (program,
	// Config) pair skips every pass, including verification.
	if cache != nil {
		progKey = programKey(pd, cfg)
		if v, ok := cache.get(progKey, diskKindProgramV2, mainSh); ok {
			art := v.(*programArtifact)
			// The cached functions are frozen: handing them out by
			// reference is safe (anything that later rewrites one clones
			// it first), and it makes the hit path free of deep copies.
			copy(p.Funcs, art.funcs)
			for name, fr := range art.perFunc {
				fr.FrontCacheHit = true
				fr.BackCacheHit = true
				rep.PerFunc[name] = fr
			}
			rep.ProgramCacheHit = true
			d.finish(rep, cs, nil, start, true, mainSh, tracer)
			return rep, nil
		}
	}

	// in holds the caller's functions, which no pass writes: every
	// attempt starts its front stage from them, each stage clones a
	// function before its first rewrite, and an error puts them back in p.
	in := &ir.Program{Globals: p.Globals, Funcs: append([]*ir.Func(nil), p.Funcs...)}
	cs.in = in
	var do *diffOracle
	if cfg.DiffCheck != DiffOff {
		do = newDiffOracle(in, pd, cfg, d.reg, d.memo)
	}

	var states []funcState
	// attempt compiles the input once under the quarantine in cs.forced.
	// Every stage records the faults it recovers from; after the stage
	// joins, they are escalated into cs.forced in function order, as is a
	// divergence the oracle bisects, and attempt returns errRecompile.
	// retry is false when the compile may not recompile (Strict mode, or
	// the attempt cap): the first fault or divergence is then returned.
	// A divergence found with no snapshots to bisect returns errBisect
	// instead: the next attempt, with bisect set, repeats this one
	// uncached and records them.
	attempt := func(retry, bisect bool) error {
		states = make([]funcState, len(p.Funcs))
		cs.cache, cs.snaps = cache, nil
		if bisect {
			cs.cache, cs.snaps = nil, newSnapRecorder(len(p.Funcs))
		}

		// Front stage (parallel): scalar optimization, injected
		// experimental passes, and register allocation, each function at
		// its quarantined rung. Each worker touches only p.Funcs[i], so
		// scheduling cannot change the output.
		if err := d.forEach(ctx, len(p.Funcs), func(w, i int) error {
			return d.compileFront(ctx, p, i, cs, &states[i], shardFor(w))
		}); err != nil {
			return err
		}
		if err := settle(p, states, retry, cs.forced.dropRung); err != nil {
			return err
		}

		// Interprocedural barrier (sequential): the post-pass CCM
		// allocator walks the call graph bottom-up, so every function's
		// allocated body must be final before any promotion decision is
		// made.
		if cfg.Strategy == PostPass || cfg.Strategy == PostPassInterproc {
			if cerr := d.postPassBarrier(ctx, p, cs, states, mainSh); cerr != nil {
				if ctx.Err() != nil || !retry {
					return cerr
				}
				cs.forced.skipCCM(p, cerr)
				return errRecompile
			}
		}

		// Back stage (parallel): spill-memory compaction, strictly
		// per-function.
		if !cfg.DisableCompaction {
			if err := d.forEach(ctx, len(p.Funcs), func(w, i int) error {
				return d.compileBack(ctx, p, i, cs, &states[i], shardFor(w))
			}); err != nil {
				return err
			}
			if err := settle(p, states, retry, cs.forced.skipCompact); err != nil {
				return err
			}
		}

		n := totalInstrs(p)
		t := time.Now()
		if err := ir.VerifyProgram(p, ir.VerifyOptions{}); err != nil {
			return fmt.Errorf("pipeline: post-compile verification failed: %w", err)
		}
		dur := time.Since(t)
		cs.m.pass(PassVerify, dur, n, n)
		if mainSh != nil {
			mainSh.Record("pass:"+PassVerify, "pass", t, dur)
		}
		if do == nil {
			return nil
		}

		// The oracle runs here, on the calling goroutine, after the
		// parallel stages have joined: worker count cannot influence the
		// verdict or the counters.
		var t0 time.Time
		if mainSh != nil {
			t0 = time.Now()
		}
		me, err := do.check(ctx, p, cs.snaps)
		if mainSh != nil {
			mainSh.Record("oracle:final", "oracle", t0, time.Since(t0))
		}
		if err != nil || me == nil {
			return err
		}
		cs.recordMiscompile(me, p, do, mainSh)
		if !retry || !cs.forced.escalate(me, cfg) {
			return me
		}
		return errRecompile
	}

	// The one recovery path: each recompile follows a strict escalation
	// of the quarantine, so the loop terminates; the cap is a backstop,
	// not a policy. An attempt that reproduces a divergence to bisect it
	// repeats its predecessor under the same quarantine and retry, so it
	// does not count against the cap.
	maxAttempts := 4*len(p.Funcs) + 4
	var err error
	for n, bisect := 1, false; ; {
		err = attempt(!cfg.Strict && n < maxAttempts, bisect)
		bisect = errors.Is(err, errBisect)
		if errors.Is(err, errRecompile) {
			n++
		} else if !bisect {
			break
		}
	}
	if err != nil {
		copy(p.Funcs, in.Funcs)
		d.abort(cs, do, cs.forced.count(p))
		return nil, err
	}

	for i, f := range p.Funcs {
		fr, q := states[i].fr, cs.forced.funcs[f.Name]
		fr.Instrs = f.NumInstrs()
		fr.FrontCacheHit = states[i].frontHit
		fr.BackCacheHit = states[i].backHit
		fr.Attempts = 1 + q.faults
		fr.Degraded = q.degraded()
		fr.FailedPass, fr.Error = q.pass, q.err
		rep.PerFunc[f.Name] = fr
	}
	rep.Degraded = cs.forced.count(p)

	// A program artifact is cached only for fault-free, divergence-free
	// compiles: degraded output is correct but below configured fidelity,
	// and must not be served to a later compile whose faults might have
	// been fixed.
	if cache != nil && cs.failures.Load() == 0 && (do == nil || do.divergences == 0) {
		// The artifact shares the compiled functions with p; put freezes
		// any the stages left mutable.
		art := &programArtifact{
			funcs:   append([]*ir.Func(nil), p.Funcs...),
			perFunc: make(map[string]FuncReport, len(rep.PerFunc)),
		}
		for name, fr := range rep.PerFunc {
			fr.FrontCacheHit = false
			fr.BackCacheHit = false
			art.perFunc[name] = fr
		}
		cache.put(progKey, diskKindProgramV2, art)
	}

	d.finish(rep, cs, do, start, false, mainSh, tracer)
	return rep, nil
}

// errRecompile is what a compile attempt returns once it has escalated
// its faults or divergence into the quarantine: the driver recompiles
// the input.
var errRecompile = errors.New("pipeline: recompile under quarantine")

// settle escalates the faults a per-function stage recorded in states,
// in function order. It returns nil for a clean stage and errRecompile
// once every fault is escalated; without retry, or for a fault escalate
// cannot quarantine, it returns the first such fault.
func settle(p *ir.Program, states []funcState, retry bool, escalate func(fn string, cerr *CompileError) bool) error {
	var err error
	for i := range states {
		if cerr := states[i].fault; cerr != nil {
			if !retry || !escalate(p.Funcs[i].Name, cerr) {
				return cerr
			}
			err = errRecompile
		}
	}
	return err
}

// postPassBarrier runs the sequential interprocedural CCM promotion over
// every function the quarantine leaves in it. A panic or error mid-walk
// is returned attributed to the function being processed (via the
// allocator's OnFunc progress callback), so the driver can exclude
// exactly that function and recompile.
func (d *Driver) postPassBarrier(ctx context.Context, p *ir.Program, cs *compileState, states []funcState, sh *obs.Shard) *CompileError {
	if cs.forced.noWalk {
		return nil
	}
	// Functions on the baseline rung keep their spill-to-RAM code, and
	// quarantined ones lose their promotion after a fault or divergence
	// in it.
	skip := map[string]bool{}
	for i, f := range p.Funcs {
		if q := cs.forced.funcs[f.Name]; q.level >= levelBaseline || q.noCCM {
			skip[f.Name] = true
		} else if f.Frozen() {
			// Copy-on-write point: the walk rewrites every function it does
			// not skip, so frozen ones (front artifacts, served or just
			// stored) are cloned now.
			p.Funcs[i] = f.Clone()
		}
	}
	if cerr := ctxErr(ctx, PassPostPass, "", levelFull); cerr != nil {
		return cerr
	}
	before := totalInstrs(p)
	t := time.Now()
	var res *core.PostPassResult
	var last string // function the walk was processing when it faulted
	var cerr *CompileError
	d.labeled(ctx, "", PassPostPass, func(context.Context) {
		cerr = runGuarded(PassPostPass, "", levelFull, func() error {
			var err error
			res, err = core.PostPass(p, core.PostPassOptions{
				CCMBytes:        cs.cfg.CCMBytes,
				Interprocedural: cs.cfg.Strategy == PostPassInterproc,
				Skip:            skip,
				OnFunc: func(name string) {
					last = name
					if cs.cfg.passHook != nil {
						cs.cfg.passHook(PassPostPass, name)
					}
				},
			})
			return err
		})
	})
	if cerr != nil {
		cerr.Func = last
		cs.recordFailure(cerr, []string{PassPostPass}, sh)
		return cerr
	}
	dur := time.Since(t)
	cs.m.pass(PassPostPass, dur, before, totalInstrs(p))
	if sh != nil {
		sh.Record("pass:"+PassPostPass, "pass", t, dur)
	}
	var promoted, ccmBytes int64
	for i, f := range p.Funcs {
		if fp := res.PerFunc[f.Name]; fp != nil {
			states[i].fr.PromotedWebs = fp.Promoted
			states[i].fr.CCMBytes = fp.CCMBytes
			promoted += int64(fp.Promoted)
			ccmBytes += fp.CCMBytes
		}
		if cs.snaps != nil && !skip[f.Name] {
			cs.snaps.barrier = append(cs.snaps.barrier, passSnap{PassPostPass, f.Name, i, f.Clone()})
		}
	}
	if d.reg != nil {
		d.reg.Counter("ccm.promoted_webs").Add(promoted)
		d.reg.Counter("ccm.bytes_used").Add(ccmBytes)
	}
	return nil
}

// stagePass is one named step of a per-function stage.
type stagePass struct {
	name string
	run  func(ctx context.Context, f *ir.Func) error
}

// frontPasses assembles the front-stage sequence for one degradation
// rung: the ladder drops the optimizer and injected passes first, then
// the integrated CCM assignment.
func (d *Driver) frontPasses(cfg Config, level degradeLevel, st *funcState) []stagePass {
	var passes []stagePass
	if !cfg.DisableOptimizer && level < levelNoOpt {
		passes = append(passes, stagePass{PassOptimize, func(_ context.Context, f *ir.Func) error {
			s, err := opt.Optimize(f)
			if err != nil {
				return err
			}
			if d.reg != nil {
				d.reg.Counter("opt.value_numbered").Add(int64(s.ValueNumbered))
				d.reg.Counter("opt.constants_folded").Add(int64(s.ConstantsFolded))
				d.reg.Counter("opt.branches_folded").Add(int64(s.BranchesFolded))
				d.reg.Counter("opt.hoisted").Add(int64(s.Hoisted))
				d.reg.Counter("opt.dead_removed").Add(int64(s.DeadRemoved))
				d.reg.Counter("opt.blocks_merged").Add(int64(s.BlocksMerged))
				d.reg.Counter("opt.blocks_removed").Add(int64(s.BlocksRemoved))
			}
			return nil
		}})
	}
	if level < levelNoOpt {
		for _, ip := range cfg.InjectFront {
			passes = append(passes, stagePass{ip.Name, ip.Fn})
		}
	}
	ra := regalloc.Options{IntRegs: cfg.IntRegs, FloatRegs: cfg.FloatRegs, Obs: d.reg}
	if cfg.Strategy == Integrated && level < levelBaseline {
		ra.CCMBytes = cfg.CCMBytes
	}
	passes = append(passes, stagePass{PassRegalloc, func(_ context.Context, f *ir.Func) error {
		res, err := regalloc.Allocate(f, ra)
		if err != nil {
			return err
		}
		st.fr.SpillBytesNaive = res.FrameBytes
		st.fr.SpilledRanges = res.SpilledRanges
		st.fr.CCMBytes = res.CCMBytesUsed
		st.fr.PromotedWebs = res.CCMRanges
		return nil
	}})
	return passes
}

// backPasses assembles the back-stage sequence: spill-memory compaction.
func (d *Driver) backPasses(st *funcState) []stagePass {
	return []stagePass{{PassCompact, func(_ context.Context, f *ir.Func) error {
		cres, err := core.CompactSpills(f)
		if err != nil {
			return err
		}
		st.fr.SpillBytesCompacted = cres.AfterBytes
		st.fr.SpillWebs = cres.Webs
		if d.reg != nil {
			d.reg.Counter("compact.webs").Add(int64(cres.Webs))
			d.reg.Counter("compact.bytes_before").Add(cres.BeforeBytes)
			d.reg.Counter("compact.bytes_after").Add(cres.AfterBytes)
		}
		return nil
	}}}
}

func passNames(passes []stagePass) []string {
	names := make([]string, len(passes))
	for i, p := range passes {
		names[i] = p.name
	}
	return names
}

// runPasses runs the passes of the front or back stage over f, the i-th
// function, at the given rung and under one per-function deadline. Each
// pass gets a deadline check and a guarded run, then its metrics, span,
// optional checkpoint and oracle snapshot. It returns the first fault.
func (d *Driver) runPasses(ctx context.Context, cs *compileState, f *ir.Func, i int, passes []stagePass, level degradeLevel, back bool, sh *obs.Shard) *CompileError {
	cfg := cs.cfg
	if cfg.FuncTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.FuncTimeout)
		defer cancel()
	}
	for _, pass := range passes {
		if cerr := ctxErr(ctx, pass.name, f.Name, level); cerr != nil {
			return cerr
		}
		before := f.NumInstrs()
		t := time.Now()
		var cerr *CompileError
		d.labeled(ctx, f.Name, pass.name, func(lctx context.Context) {
			cerr = runGuarded(pass.name, f.Name, level, func() error {
				if cfg.passHook != nil {
					cfg.passHook(pass.name, f.Name)
				}
				return pass.run(lctx, f)
			})
		})
		if cerr != nil {
			return cerr
		}
		dur := time.Since(t)
		cs.m.pass(pass.name, dur, before, f.NumInstrs())
		if sh != nil {
			sh.Record("pass:"+pass.name, "pass", t, dur,
				obs.Attr{Key: "func", Value: f.Name}, obs.Attr{Key: "level", Value: level.String()})
		}
		if cfg.VerifyPasses {
			if cerr := checkpoint(pass.name, f, level); cerr != nil {
				return cerr
			}
		}
		if cs.snaps != nil {
			cs.snaps.add(back, passSnap{pass.name, f.Name, i, f.Clone()})
		}
	}
	return nil
}

// compileFront runs the front stage for the i-th input function at its
// quarantined rung and leaves the result in p.Funcs[i]. A fault is left
// in st for the driver to escalate; only cancellation returns an error.
func (d *Driver) compileFront(ctx context.Context, p *ir.Program, i int, cs *compileState, st *funcState, sh *obs.Shard) error {
	f := cs.in.Funcs[i]
	if sh != nil {
		fstart := time.Now()
		defer func() {
			sh.Record("front", "stage", fstart, time.Since(fstart), obs.Attr{Key: "func", Value: f.Name})
		}()
	}
	// frontKey does not carry the rung, so only a function compiled at
	// full fidelity reads or writes front artifacts. Every attempt starts
	// the front stage from the input, so the key derives from the input
	// function's digest.
	level := cs.forced.funcs[f.Name].level
	cache := cs.cache
	if level > levelFull {
		cache = nil
	}
	var key digest
	if cache != nil {
		key = frontKey(cs.digests[i], cs.cfg)
		if v, ok := cache.get(key, diskKindFrontV2, sh); ok {
			// Frozen artifact, shared by reference; the stages that rewrite
			// it (barrier, back stage) clone at their own mutation points.
			art := v.(*frontArtifact)
			p.Funcs[i] = art.fn
			st.fr = art.fr
			st.frontHit = true
			return nil
		}
	}

	// Copy-on-write point: the passes rewrite the function, and the input
	// is never written.
	f = f.Clone()
	p.Funcs[i] = f
	passes := d.frontPasses(cs.cfg, level, st)
	var cerr *CompileError
	if cs.cfg.VerifyPasses {
		// Pre-pass checkpoint: a broken invariant already present in the
		// input must be attributed to the input, not to the first pass.
		cerr = checkpoint(PassInput, f, level)
	}
	if cerr == nil {
		cerr = d.runPasses(ctx, cs, f, i, passes, level, false, sh)
	}
	if cerr != nil {
		return cs.fault(ctx, st, cerr, passNames(passes), sh)
	}
	if cache != nil {
		// put freezes f, so the stages still to run on p.Funcs[i] clone it
		// before they rewrite it. The report derives Attempts, so the
		// artifact stores the 1 of a clean first try.
		fr := st.fr
		fr.Attempts = 1
		cache.put(key, diskKindFrontV2, &frontArtifact{fn: f, fr: fr})
	}
	return nil
}

// compileBack runs the back stage for p.Funcs[i]. A fault is left in st
// for the driver to escalate; only cancellation returns an error.
func (d *Driver) compileBack(ctx context.Context, p *ir.Program, i int, cs *compileState, st *funcState, sh *obs.Shard) error {
	f := p.Funcs[i]
	if sh != nil {
		bstart := time.Now()
		defer func() {
			sh.Record("back", "stage", bstart, time.Since(bstart), obs.Attr{Key: "func", Value: f.Name})
		}()
	}
	q := cs.forced.funcs[f.Name]
	if q.noCompact {
		// Quarantined: ship the post-barrier body untouched.
		return nil
	}
	var key digest
	if cs.cache != nil {
		key = backKey(f, cs.cfg)
		if v, ok := cs.cache.get(key, diskKindBackV2, sh); ok {
			// Frozen artifact, shared by reference: the back stage is the
			// last rewrite, so nothing downstream mutates it, and the
			// program artifact shares it too.
			art := v.(*backArtifact)
			p.Funcs[i] = art.fn
			st.fr.SpillBytesCompacted = art.compactAfter
			st.fr.SpillWebs = art.webs
			st.backHit = true
			return nil
		}
	}

	// Copy-on-write point: the compaction pass rewrites the function, so
	// a frozen one (a front artifact the barrier did not rewrite) is
	// cloned here.
	if f.Frozen() {
		f = f.Clone()
		p.Funcs[i] = f
	}
	passes := d.backPasses(st)
	if cerr := d.runPasses(ctx, cs, f, i, passes, q.level, true, sh); cerr != nil {
		return cs.fault(ctx, st, cerr, passNames(passes), sh)
	}
	if cs.cache != nil && q.degraded() == "" {
		cs.cache.put(key, diskKindBackV2, &backArtifact{
			fn:           f,
			compactAfter: st.fr.SpillBytesCompacted,
			webs:         st.fr.SpillWebs,
		})
	}
	return nil
}

// finish stamps wall time, cache, fault, differential-oracle, and
// observability stats on rep and folds the compile into the driver's
// cumulative metrics; the caller has set rep.Degraded. tracer is the
// tracer this compile recorded into (the driver's, unless CompileTraced
// overrode it).
func (d *Driver) finish(rep *Report, cs *compileState, do *diffOracle, start time.Time, programHit bool, sh *obs.Shard, tracer *obs.Tracer) {
	rep.WallNanos = time.Since(start).Nanoseconds()
	rep.Passes = cs.m.stats()
	rep.Failures = cs.failures.Load()
	if d.cache != nil {
		rep.Cache = d.cache.Stats()
	}
	if sh != nil {
		sh.Record("compile", "pipeline", start, time.Since(start),
			obs.Attr{Key: "strategy", Value: rep.Strategy},
			obs.Attr{Key: "funcs", Value: fmt.Sprint(rep.Funcs)})
	}
	if d.reg != nil {
		d.reg.Counter("pipeline.compiles").Inc()
		d.reg.Counter("pipeline.funcs").Add(int64(rep.Funcs))
		d.reg.Counter("pipeline.failures").Add(rep.Failures)
		d.reg.Counter("pipeline.degraded").Add(rep.Degraded)
		if programHit {
			d.reg.Counter("pipeline.program_hits").Inc()
		}
		if d.cache != nil {
			// Gauges mirror the cache's cumulative counters so a metrics
			// snapshot is self-contained; the disk block surfaces the
			// persistent tier's robustness counters.
			cst := rep.Cache
			d.reg.Gauge("cache.hits").Set(cst.Hits)
			d.reg.Gauge("cache.misses").Set(cst.Misses)
			d.reg.Gauge("cache.entries").Set(int64(cst.Entries))
			d.reg.Gauge("cache.evictions").Set(cst.Evictions)
			d.reg.Gauge("diskcache.hits").Set(cst.Disk.Hits)
			d.reg.Gauge("diskcache.misses").Set(cst.Disk.Misses)
			d.reg.Gauge("diskcache.writes").Set(cst.Disk.Writes)
			d.reg.Gauge("diskcache.corruptions").Set(cst.Disk.Corruptions)
			d.reg.Gauge("diskcache.quarantines").Set(cst.Disk.Quarantines)
			d.reg.Gauge("diskcache.read_errors").Set(cst.Disk.ReadErrors)
			d.reg.Gauge("diskcache.write_errors").Set(cst.Disk.WriteErrors)
			d.reg.Gauge("diskcache.swept_temps").Set(cst.Disk.SweptTemps)
			d.reg.Gauge("diskcache.degraded_to_memory").Set(cst.Disk.DegradedToMemory)
			d.reg.Gauge("diskcache.bytes").Set(cst.Disk.Bytes)
			d.reg.Gauge("diskcache.entries").Set(int64(cst.Disk.Entries))
			if d.cache.Remote() != nil {
				// The remote block surfaces the network tier's hardening
				// counters; remotecache.circuit_state is set live by the
				// breaker itself on every transition.
				d.reg.Gauge("remotecache.hits").Set(cst.Remote.Hits)
				d.reg.Gauge("remotecache.misses").Set(cst.Remote.Misses)
				d.reg.Gauge("remotecache.puts").Set(cst.Remote.Puts)
				d.reg.Gauge("remotecache.put_drops").Set(cst.Remote.PutDrops)
				d.reg.Gauge("remotecache.put_errors").Set(cst.Remote.PutErrors)
				d.reg.Gauge("remotecache.retries").Set(cst.Remote.Retries)
				d.reg.Gauge("remotecache.timeouts").Set(cst.Remote.Timeouts)
				d.reg.Gauge("remotecache.net_errors").Set(cst.Remote.NetErrors)
				d.reg.Gauge("remotecache.http_errors").Set(cst.Remote.HTTPErrors)
				d.reg.Gauge("remotecache.corruptions").Set(cst.Remote.Corruptions)
				d.reg.Gauge("remotecache.skipped").Set(cst.Remote.Skipped)
				d.reg.Gauge("remotecache.trips").Set(cst.Remote.Trips)
				d.reg.Gauge("remotecache.probes").Set(cst.Remote.Probes)
			}
		}
	}
	rep.Spans = tracer.Count()
	rep.Metrics = d.reg.Snapshot()
	if do != nil {
		rep.DiffFuncsChecked = do.funcsChecked
		rep.DiffRuns = do.runs
		rep.DiffInconclusive = do.inconclusive
		rep.Divergences = do.divergences
		if len(do.divergentPasses) > 0 {
			rep.DivergentPasses = make(map[string]int64, len(do.divergentPasses))
			for k, v := range do.divergentPasses {
				rep.DivergentPasses[k] = v
			}
		}
	}
	cs.mu.Lock()
	sort.Strings(cs.repros)
	rep.Repros = cs.repros
	if cs.reproErr != nil {
		rep.ReproError = cs.reproErr.Error()
	}
	cs.mu.Unlock()
	d.mu.Lock()
	defer d.mu.Unlock()
	d.compiles++
	d.funcsTotal += int64(rep.Funcs)
	d.wallTotal += rep.WallNanos
	if programHit {
		d.programHits++
	}
	d.cum.merge(cs.m)
	d.foldLocked(rep.Failures, rep.Degraded, do)
}

// abort is the error exit of a compile: it folds the fault and oracle
// counters into the driver's totals and registry, as finish does for a
// compile that returns a report.
func (d *Driver) abort(cs *compileState, do *diffOracle, degraded int64) {
	failures := cs.failures.Load()
	if d.reg != nil {
		d.reg.Counter("pipeline.failures").Add(failures)
		d.reg.Counter("pipeline.degraded").Add(degraded)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.foldLocked(failures, degraded, do)
}

// foldLocked adds one compile's fault and oracle counters to the driver
// totals; d.mu must be held.
func (d *Driver) foldLocked(failures, degraded int64, do *diffOracle) {
	d.failures += failures
	d.degraded += degraded
	if do == nil {
		return
	}
	d.diffChecked += do.funcsChecked
	d.diffRuns += do.runs
	d.diffInconclusive += do.inconclusive
	d.divergences += do.divergences
	for k, v := range do.divergentPasses {
		d.divergentPasses[k] += v
	}
}

// Metrics returns the driver's cumulative totals across every Compile:
// aggregated per-pass timings, total functions and wall time, the number
// of whole-program cache hits, fault counters, and a cache-counter
// snapshot. PerFunc is nil on the cumulative report.
func (d *Driver) Metrics() *Report {
	d.mu.Lock()
	defer d.mu.Unlock()
	rep := &Report{
		Strategy:         "(cumulative)",
		Workers:          d.workers,
		Compiles:         d.compiles,
		Funcs:            int(d.funcsTotal),
		WallNanos:        d.wallTotal,
		ProgramHits:      d.programHits,
		Failures:         d.failures,
		Degraded:         d.degraded,
		DiffFuncsChecked: d.diffChecked,
		DiffRuns:         d.diffRuns,
		DiffInconclusive: d.diffInconclusive,
		Divergences:      d.divergences,
		Passes:           d.cum.stats(),
	}
	if len(d.divergentPasses) > 0 {
		rep.DivergentPasses = make(map[string]int64, len(d.divergentPasses))
		for k, v := range d.divergentPasses {
			rep.DivergentPasses[k] = v
		}
	}
	if d.cache != nil {
		rep.Cache = d.cache.Stats()
	}
	rep.Spans = d.tracer.Count()
	rep.Metrics = d.reg.Snapshot()
	return rep
}

// forEach runs fn(worker, i) for i in [0,n) on the worker pool and
// returns the first error. ctx is checked between items; the stages fail
// an item only once ctx is done, so that check also stops the other
// workers. worker identifies which pool slot ran the item (0 on the
// sequential path), so callers can select per-worker span shards. With
// one worker (or one item) it degenerates to a plain loop; results are
// identical either way because each fn touches only its own index.
func (d *Driver) forEach(ctx context.Context, n int, fn func(worker, i int) error) error {
	workers := d.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("pipeline: %w", err)
			}
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next  atomic.Int64
		wg    sync.WaitGroup
		errMu sync.Mutex
		first error
	)
	fail := func(err error) {
		errMu.Lock()
		if first == nil {
			first = err
		}
		errMu.Unlock()
	}
	next.Store(-1)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					fail(fmt.Errorf("pipeline: %w", err))
					return
				}
				if err := fn(w, i); err != nil {
					fail(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return first
}

func totalInstrs(p *ir.Program) int {
	n := 0
	for _, f := range p.Funcs {
		n += f.NumInstrs()
	}
	return n
}
