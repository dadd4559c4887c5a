// Package ccm is the public facade of the Compiler-Controlled Memory
// reproduction (Cooper & Harvey, ASPLOS 1998). It wraps the full pipeline:
//
//	parse / build ILOC → scalar optimization → Chaitin-Briggs register
//	allocation → CCM spill promotion → spill-memory compaction →
//	instrumented execution on the paper's abstract machine.
//
// Quick start:
//
//	prog, _ := ccm.ParseProgram(src)
//	report, _ := prog.Compile(ccm.Config{Strategy: ccm.PostPassInterproc, CCMBytes: 512})
//	stats, _ := prog.Run("main")
//	fmt.Println(stats.Cycles, stats.MemOpCycles)
//
// The four strategies mirror the paper: NoCCM is the plain allocator with
// heavyweight spills; PostPass and PostPassInterproc are the stand-alone
// CCM allocator of §3.1 (without and with call-graph information); and
// Integrated folds CCM allocation into the register allocator's spill-code
// insertion (§3.2).
package ccm

import (
	"context"
	"fmt"
	"io"
	"runtime/debug"
	"strings"
	"sync"

	"ccmem/internal/ir"
	"ccmem/internal/memsys"
	"ccmem/internal/obs"
	"ccmem/internal/pipeline"
	"ccmem/internal/sim"
)

// Version reports the toolchain build identity, derived from
// runtime/debug.ReadBuildInfo: module version (or the VCS revision and
// commit time when built from a checkout) plus the Go toolchain. Every
// binary in this module answers -version — and the compile service
// answers GET /version — with exactly this string, so a fleet operator
// can tell which build produced which artifact.
func Version() string {
	var b strings.Builder
	b.WriteString("ccmem")
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		b.WriteString(" (no build info)")
		return b.String()
	}
	if v := bi.Main.Version; v != "" {
		b.WriteString(" " + v)
	}
	var rev, t, dirty string
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.time":
			t = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = " dirty"
			}
		}
	}
	if rev != "" {
		if len(rev) > 12 {
			rev = rev[:12]
		}
		b.WriteString(" rev " + rev + dirty)
		if t != "" {
			b.WriteString(" (" + t + ")")
		}
	}
	if bi.GoVersion != "" {
		b.WriteString(" " + bi.GoVersion)
	}
	return b.String()
}

// Strategy selects how register spills are placed.
type Strategy int

const (
	// NoCCM spills to the activation record only (the baseline).
	NoCCM Strategy = iota
	// PostPass promotes spills with the stand-alone intraprocedural CCM
	// allocator: only values not live across calls may use the CCM.
	PostPass
	// PostPassInterproc adds the bottom-up call-graph walk: values live
	// across calls may use CCM above the callee's high-water mark, and
	// recursion cycles conservatively count as using the full CCM.
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

// Config parameterizes compilation. The zero value compiles like the
// paper's baseline: 32+32 registers, optimizer on, no CCM.
type Config struct {
	Strategy Strategy
	CCMBytes int64 // capacity of the CCM; required unless Strategy is NoCCM

	IntRegs   int // default 32
	FloatRegs int // default 32

	// DisableOptimizer skips the scalar optimizer (the paper's inputs were
	// heavily pre-optimized, so the default is on).
	DisableOptimizer bool
	// DisableCompaction skips spill-memory compaction (footnote 3).
	DisableCompaction bool

	// VerifyPasses checkpoints IR and liveness invariants after every
	// pass, attributing the first breakage to the pass that introduced
	// it (slower; a debugging and hardening mode).
	VerifyPasses bool
	// Strict fails the compile on the first pass fault instead of
	// degrading the affected function.
	Strict bool
	// ReproDir, when non-empty, receives a replayable crash repro bundle
	// for every recovered or fatal pass fault.
	ReproDir string
	// DiffCheck runs the differential-execution miscompile oracle: the
	// compiled program is executed against the input on deterministic
	// argument vectors and any divergence is bisected to the pass that
	// introduced it, then quarantined via the degradation ladder (or
	// fatal under Strict). See CompileReport.Divergences.
	DiffCheck bool

	// CacheDir enables the persistent artifact cache: compiled artifacts
	// are stored crash-safely under this directory and verified (SHA-256)
	// on the way back, so identical compiles are answered across process
	// restarts. A missing or corrupt directory never fails a compile —
	// the driver falls back to memory-only caching (see
	// CompileReport.CacheWarning). Empty = memory-only.
	CacheDir string
	// CacheBytes bounds the persistent tier (LRU-by-access eviction);
	// <= 0 uses the default budget.
	CacheBytes int64

	// Trace, when non-nil, receives the compile's span trace as Chrome
	// trace-event JSON (load it at https://ui.perfetto.dev): one span per
	// pass, stage, cache lookup, and oracle run, with per-worker rows.
	Trace io.Writer
	// Metrics enables the metrics registry for this compile; the
	// resulting counter/gauge/histogram snapshot is returned in
	// CompileReport.Metrics.
	Metrics bool
}

// MetricsSnapshot is the public mirror of the driver's metrics registry
// at compile end. Counters and gauges are deterministic across worker
// counts; histogram quantiles measure wall clock and are not.
type MetricsSnapshot struct {
	Counters   map[string]int64
	Gauges     map[string]int64
	Histograms map[string]HistogramSummary
}

// HistogramSummary summarizes one latency histogram. Count is exact;
// the quantiles are fixed-bucket upper-bound estimates (-1 = overflow).
type HistogramSummary struct {
	Count    int64
	SumNanos int64
	P50Nanos int64
	P95Nanos int64
}

// CompileReport summarizes one compilation.
type CompileReport struct {
	// PerFunc maps function name to its spill/promotion summary.
	PerFunc map[string]FuncReport
	// Failures counts recovered pass faults; Degraded counts functions
	// shipped below the configured fidelity (see FuncReport.Degraded).
	Failures int64
	Degraded int64
	// Divergences counts miscompiles the differential oracle detected
	// (Config.DiffCheck); each was quarantined before the compile
	// returned, so the shipped program matches the input semantics.
	Divergences int64
	// Repros lists the crash repro bundles written (Config.ReproDir).
	Repros []string
	// CacheWarning is non-empty when Config.CacheDir was set but the
	// persistent tier could not be opened; the compile ran memory-only.
	CacheWarning string
	// Spans is the number of trace spans recorded (Config.Trace).
	Spans int64
	// Metrics is the registry snapshot for this compile (Config.Metrics;
	// nil otherwise).
	Metrics *MetricsSnapshot
}

// FuncReport is the per-function compilation summary.
type FuncReport struct {
	SpillBytesNaive     int64 // one frame slot per spilled live range
	SpillBytesCompacted int64 // after coloring-based compaction
	CCMBytes            int64 // CCM high-water of the function's own code
	SpilledRanges       int
	PromotedWebs        int // spill live ranges redirected to the CCM

	// Degraded names the rung of the degradation ladder the function
	// shipped at ("" = full fidelity; "no-opt", "baseline", "no-ccm",
	// optionally "+no-compact"); FailedPass and Error describe the last
	// recovered fault.
	Degraded   string
	FailedPass string
	Error      string
}

// Program is a compilation unit (an opaque wrapper around the internal
// ILOC representation).
type Program struct {
	p        *ir.Program
	compiled bool
	ccmBytes int64
}

// ParseProgram reads the textual ILOC form (see the README for the
// grammar) and verifies it.
func ParseProgram(src string) (*Program, error) {
	p, err := ir.Parse(src)
	if err != nil {
		return nil, err
	}
	if err := ir.VerifyProgram(p, ir.VerifyOptions{}); err != nil {
		return nil, err
	}
	return &Program{p: p}, nil
}

// FromIR wraps an internally built program (used by the workload suite and
// the command-line tools; library users normally use ParseProgram).
func FromIR(p *ir.Program) *Program { return &Program{p: p} }

// IR exposes the underlying representation for in-module tooling.
func (pr *Program) IR() *ir.Program { return pr.p }

// Clone deep-copies the program (including compiled state).
func (pr *Program) Clone() *Program {
	return &Program{p: pr.p.Clone(), compiled: pr.compiled, ccmBytes: pr.ccmBytes}
}

// Text renders the program in parseable ILOC text.
func (pr *Program) Text() string { return pr.p.String() }

// diffMode maps the facade's boolean oracle switch onto the driver's
// mode; the facade only exposes the final-program check.
func diffMode(on bool) pipeline.DiffCheck {
	if on {
		return pipeline.DiffFinal
	}
	return pipeline.DiffOff
}

// pipelineStrategy maps the facade strategy onto the driver's.
func pipelineStrategy(s Strategy) pipeline.Strategy {
	switch s {
	case PostPass:
		return pipeline.PostPass
	case PostPassInterproc:
		return pipeline.PostPassInterproc
	case Integrated:
		return pipeline.Integrated
	}
	return pipeline.NoCCM
}

// defaultDriver serves every Compile through this facade: a worker pool
// sized to GOMAXPROCS and one process-wide content-addressed artifact
// cache, so repeated compiles of identical (program, Config) pairs are
// answered without re-running the passes. Compilation is deterministic,
// so neither parallelism nor caching can change the output.
var defaultDriver = pipeline.New(pipeline.Options{})

// diskDrivers holds one long-lived driver per (CacheDir, CacheBytes)
// pair, so every compile against a cache directory shares its disk
// handle, its LRU accounting, and its in-memory tier — opening a fresh
// handle per Compile would reset the access order and race the sweeps.
var (
	diskDriverMu sync.Mutex
	diskDrivers  = map[string]*pipeline.Driver{}
)

// driverFor returns the process-wide driver serving cfg's cache
// location: the shared default driver when CacheDir is empty, a
// per-directory driver otherwise.
func driverFor(cfg Config) *pipeline.Driver {
	if cfg.CacheDir == "" {
		return defaultDriver
	}
	key := fmt.Sprintf("%s\x00%d", cfg.CacheDir, cfg.CacheBytes)
	diskDriverMu.Lock()
	defer diskDriverMu.Unlock()
	d, ok := diskDrivers[key]
	if !ok {
		d = pipeline.New(pipeline.Options{CacheDir: cfg.CacheDir, CacheBytes: cfg.CacheBytes})
		diskDrivers[key] = d
	}
	return d
}

// Compile runs the full pipeline in place. The work is delegated to the
// internal/pipeline driver; use that package directly (via IR) for
// per-pass timings, cache statistics, and worker control.
func (pr *Program) Compile(cfg Config) (*CompileReport, error) {
	return pr.CompileContext(context.Background(), cfg)
}

// CompileContext is Compile with cooperative cancellation: ctx is checked
// at pass boundaries, and compilation stops at the first boundary after
// it is done.
func (pr *Program) CompileContext(ctx context.Context, cfg Config) (*CompileReport, error) {
	if pr.compiled {
		return nil, fmt.Errorf("ccm: program is already compiled")
	}
	if cfg.Strategy != NoCCM && cfg.CCMBytes <= 0 {
		return nil, fmt.Errorf("ccm: strategy %v requires CCMBytes > 0", cfg.Strategy)
	}
	base := driverFor(cfg)
	driver := base
	var tracer *obs.Tracer
	if cfg.Trace != nil || cfg.Metrics {
		// Observability is per-compile: build a private driver that shares
		// the base driver's artifact cache (so hit rates and disk LRU state
		// stay process-wide) but owns its tracer and registry, so
		// concurrent Compiles never mix spans or counters.
		opts := pipeline.Options{Cache: base.Cache()}
		if cfg.Trace != nil {
			tracer = obs.NewTracer()
			opts.Tracer = tracer
		}
		if cfg.Metrics {
			opts.Metrics = obs.NewRegistry()
		}
		driver = pipeline.New(opts)
	}
	prep, err := driver.CompileContext(ctx, pr.p, pipeline.Config{
		Strategy:          pipelineStrategy(cfg.Strategy),
		CCMBytes:          cfg.CCMBytes,
		IntRegs:           cfg.IntRegs,
		FloatRegs:         cfg.FloatRegs,
		DisableOptimizer:  cfg.DisableOptimizer,
		DisableCompaction: cfg.DisableCompaction,
		VerifyPasses:      cfg.VerifyPasses,
		Strict:            cfg.Strict,
		ReproDir:          cfg.ReproDir,
		DiffCheck:         diffMode(cfg.DiffCheck),
	})
	if err != nil {
		return nil, fmt.Errorf("ccm: %w", err)
	}
	rep := &CompileReport{
		PerFunc:     map[string]FuncReport{},
		Failures:    prep.Failures,
		Degraded:    prep.Degraded,
		Divergences: prep.Divergences,
		Repros:      prep.Repros,
		Spans:       prep.Spans,
	}
	if prep.Metrics != nil {
		ms := &MetricsSnapshot{Counters: prep.Metrics.Counters, Gauges: prep.Metrics.Gauges}
		if len(prep.Metrics.Histograms) > 0 {
			ms.Histograms = make(map[string]HistogramSummary, len(prep.Metrics.Histograms))
			for name, h := range prep.Metrics.Histograms {
				ms.Histograms[name] = HistogramSummary{
					Count:    h.Count,
					SumNanos: h.SumNanos,
					P50Nanos: h.P50Nanos,
					P95Nanos: h.P95Nanos,
				}
			}
		}
		rep.Metrics = ms
	}
	if err := base.DiskCacheErr(); err != nil {
		rep.CacheWarning = err.Error()
	}
	if tracer != nil {
		if werr := tracer.WriteChromeTrace(cfg.Trace); werr != nil {
			return nil, fmt.Errorf("ccm: writing trace: %w", werr)
		}
	}
	for name, fr := range prep.PerFunc {
		rep.PerFunc[name] = FuncReport{
			SpillBytesNaive:     fr.SpillBytesNaive,
			SpillBytesCompacted: fr.SpillBytesCompacted,
			CCMBytes:            fr.CCMBytes,
			SpilledRanges:       fr.SpilledRanges,
			PromotedWebs:        fr.PromotedWebs,
			Degraded:            fr.Degraded,
			FailedPass:          fr.FailedPass,
			Error:               fr.Error,
		}
	}
	pr.compiled = true
	pr.ccmBytes = cfg.CCMBytes
	return rep, nil
}

// RunOption adjusts execution.
type RunOption func(*sim.Config)

// WithMemCost overrides the main-memory operation cost (paper default: 2).
func WithMemCost(c int) RunOption { return func(s *sim.Config) { s.MemCost = c } }

// WithCCMBytes overrides the CCM capacity at run time (defaults to the
// size the program was compiled for).
func WithCCMBytes(n int64) RunOption { return func(s *sim.Config) { s.CCMBytes = n } }

// WithCCMBase sets the per-process CCM base register (paper §2.1).
func WithCCMBase(n int64) RunOption { return func(s *sim.Config) { s.CCMBase = n } }

// WithMaxSteps bounds the dynamic instruction count; exceeding it is a
// structured resource-limit fault, so a nonterminating program cannot
// hang the caller.
func WithMaxSteps(n int64) RunOption { return func(s *sim.Config) { s.MaxSteps = n } }

// WithMaxDepth bounds the call-stack depth; exceeding it is a structured
// resource-limit fault attributed to the function that recursed.
func WithMaxDepth(n int) RunOption { return func(s *sim.Config) { s.MaxDepth = n } }

// WithTrace streams one line per executed instruction to w (at most limit
// lines; 0 means the default cap), a debugging aid.
func WithTrace(w io.Writer, limit int64) RunOption {
	return func(s *sim.Config) { s.Trace = w; s.TraceLimit = limit }
}

// WithCache attaches a freshly built set-associative data cache to main
// memory. An invalid cache geometry surfaces as an error from Run, not a
// panic. To inspect hit/miss statistics afterwards, build the model
// yourself and pass it via WithMemory.
func WithCache(cfg memsys.CacheConfig) RunOption {
	return func(s *sim.Config) {
		c, err := memsys.NewCache(cfg)
		if err != nil {
			s.Err = err
			return
		}
		s.Memory = c
	}
}

// WithMemory attaches a caller-supplied memory-hierarchy model (cache,
// write buffer, victim cache — see internal/memsys) so its statistics can
// be read after the run. The model is Reset at run start.
func WithMemory(m memsys.Model) RunOption {
	return func(s *sim.Config) { s.Memory = m }
}

// RunStats is the instrumented result of executing a program.
type RunStats struct {
	Instrs      int64
	Cycles      int64
	MemOpCycles int64
	MainMemOps  int64
	CCMOps      int64
	SpillStores int64
	SpillLoads  int64
	CCMSpills   int64
	CCMRestores int64

	// Output is the observable emit trace.
	Output []sim.Value
	// PerFunc gives exclusive per-function attribution.
	PerFunc map[string]FuncStats
}

// FuncStats is the per-function execution summary.
type FuncStats struct {
	Calls       int64
	Instrs      int64
	Cycles      int64
	MemOpCycles int64
}

// Run executes entry() on the abstract machine.
func (pr *Program) Run(entry string, opts ...RunOption) (*RunStats, error) {
	cfg := sim.Config{CCMBytes: pr.ccmBytes}
	for _, o := range opts {
		o(&cfg)
	}
	st, err := sim.Run(pr.p, entry, cfg)
	if err != nil {
		return nil, err
	}
	out := &RunStats{
		Instrs:      st.Instrs,
		Cycles:      st.Cycles,
		MemOpCycles: st.MemOpCycles,
		MainMemOps:  st.MainMemOps,
		CCMOps:      st.CCMOps,
		SpillStores: st.SpillStores,
		SpillLoads:  st.SpillLoads,
		CCMSpills:   st.CCMSpills,
		CCMRestores: st.CCMRestores,
		Output:      st.Output,
		PerFunc:     map[string]FuncStats{},
	}
	for name, fs := range st.PerFunc {
		out.PerFunc[name] = FuncStats{Calls: fs.Calls, Instrs: fs.Instrs, Cycles: fs.Cycles, MemOpCycles: fs.MemOpCycles}
	}
	return out, nil
}
