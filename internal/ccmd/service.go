// Package ccmd is the long-running compile service over the shared
// pipeline driver: the serving surface that turns the reliability
// substrate (worker pool, two-tier content-addressed cache, fault
// isolation and degradation, miscompile oracle, tracing and metrics)
// into a daemon answering compile/run/report requests over HTTP+JSON.
//
// The package splits service from transport. Service owns the policy:
// one shared pipeline.Driver (so every tenant hits one cache and one
// metrics registry), admission through a bounded queue with
// backpressure — a full queue is a typed saturation error, never
// unbounded growth — per-tenant repro-bundle namespaces, and a drain
// protocol for graceful shutdown.
// The handlers in handlers.go are a thin HTTP skin: decode, validate,
// call the service, encode the typed result.
//
// Two invariants the tests pin down:
//
//   - Determinism: the artifact a request gets is byte-identical to a
//     solo ccmc compile of the same (program, config) at any
//     concurrency. Saturation may cost latency, never bytes.
//   - Bounded everything: at most MaxInflight compiles run, at most
//     MaxQueue wait, trace retention is capped, programs over the size
//     limit are rejected before parsing, and the memo of parsed programs
//     holds at most 16 MiB of request text and parsed programs
//     (parseMemoBytes).
package ccmd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"ccmem/internal/ir"
	"ccmem/internal/obs"
	"ccmem/internal/pipeline"
	"ccmem/internal/repro"
	"ccmem/internal/sim"
)

// Defaults for Config fields left zero.
const (
	DefaultMaxQueueFactor  = 4               // MaxQueue = factor * MaxInflight
	DefaultRetryAfter      = 2 * time.Second // 429/503 backoff hint
	DefaultMaxProgramBytes = 1 << 20         // 1 MiB of ILOC text per request
	DefaultMaxTraceSpans   = 1 << 16         // retained spans across recent traced requests
	DefaultMaxRunSteps     = 500_000_000     // ceiling on RunRequest.MaxSteps (the simulator default)
)

// Config parameterizes a Service. Driver is required; everything else
// has serviceable defaults.
type Config struct {
	// Driver is the shared compilation driver — its cache (including
	// any persistent tier), metrics registry, and cumulative totals are
	// what every request on this service shares.
	Driver *pipeline.Driver

	// MaxInflight bounds concurrently running compiles/runs; 0 means
	// the driver's worker-pool size.
	MaxInflight int
	// MaxQueue bounds requests waiting for a slot; beyond it admission
	// fails with CodeSaturated. 0 means DefaultMaxQueueFactor*MaxInflight.
	MaxQueue int
	// RetryAfter is the backoff hint on 429/503 responses.
	RetryAfter time.Duration

	// ReproDir is the base directory for crash/miscompile repro bundles;
	// requests with Options.Repro write under ReproDir/<tenant>/. Empty
	// disables bundle capture service-wide.
	ReproDir string

	// MaxProgramBytes bounds the ILOC text of one request.
	MaxProgramBytes int64
	// MaxRunSteps is the ceiling a run request's max_steps is clamped to.
	MaxRunSteps int64
	// MaxTraceSpans bounds the spans retained from recent traced
	// requests for GET /trace (oldest batches evicted whole).
	MaxTraceSpans int
}

func (c Config) withDefaults() Config {
	if c.MaxInflight <= 0 {
		c.MaxInflight = c.Driver.Workers()
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = DefaultMaxQueueFactor * c.MaxInflight
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = DefaultRetryAfter
	}
	if c.MaxProgramBytes <= 0 {
		c.MaxProgramBytes = DefaultMaxProgramBytes
	}
	if c.MaxRunSteps <= 0 {
		c.MaxRunSteps = DefaultMaxRunSteps
	}
	if c.MaxTraceSpans <= 0 {
		c.MaxTraceSpans = DefaultMaxTraceSpans
	}
	return c
}

// Service is the compile service: policy and state behind the HTTP
// handlers. Safe for concurrent use.
type Service struct {
	cfg Config
	drv *pipeline.Driver
	reg *obs.Registry // the driver's registry (nil when metrics are off)

	slots chan struct{} // admission semaphore, cap MaxInflight
	memo  *parseMemo    // programs parsed and verified, by request text

	requests          atomic.Int64
	inflight          atomic.Int64
	queued            atomic.Int64
	rejectedSaturated atomic.Int64
	rejectedDraining  atomic.Int64
	traceRequests     atomic.Int64
	unauthorized      atomic.Int64

	// Drain protocol: draining flips under mu, active counts admitted
	// requests still running, and cond wakes Drain when active reaches
	// zero. New admissions are refused once draining is set.
	mu       sync.Mutex
	cond     *sync.Cond
	draining bool
	active   int

	// Trace retention: span batches from recently completed traced
	// requests, each batch stamped with its request's PID, evicted
	// oldest-first once totalSpans would exceed MaxTraceSpans. Appends
	// and reads both hold traceMu, so GET /trace never races a
	// recording shard (request tracers are private until their compile
	// returns).
	traceMu    sync.Mutex
	traceBatch [][]obs.Span
	totalSpans int
	nextPID    int

	// bodyTimeout bounds the time a request body takes to arrive: it is
	// bodyReadTimeout, which tests shorten.
	bodyTimeout time.Duration

	// testCompileHook, when non-nil, runs while the request holds its
	// admission slot, before the compile — the seam saturation and
	// drain tests use to hold slots deterministically.
	testCompileHook func()
}

// NewService builds a Service over a shared driver.
func NewService(cfg Config) (*Service, error) {
	if cfg.Driver == nil {
		return nil, fmt.Errorf("ccmd: Config.Driver is required")
	}
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:   cfg,
		drv:   cfg.Driver,
		reg:   cfg.Driver.Registry(),
		slots: make(chan struct{}, cfg.MaxInflight),
		memo:  newParseMemo(cfg.Driver.Registry()),

		bodyTimeout: bodyReadTimeout,
	}
	s.cond = sync.NewCond(&s.mu)
	return s, nil
}

// Driver returns the shared driver (for health checks and reports).
func (s *Service) Driver() *pipeline.Driver { return s.drv }

// Draining reports whether shutdown has begun.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// BeginDrain stops admitting new requests: readiness flips, and every
// subsequent Compile/Run fails with CodeDraining. In-flight requests
// keep running; Drain waits for them.
func (s *Service) BeginDrain() {
	s.mu.Lock()
	s.draining = true
	if s.active == 0 {
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

// Drain begins draining (if BeginDrain hasn't already) and blocks until
// every admitted request has finished or ctx expires. It returns nil on
// a clean drain and ctx.Err() on deadline — in-flight compiles are then
// still running; the caller decides whether to cancel their contexts or
// exit anyway.
func (s *Service) Drain(ctx context.Context) error {
	s.BeginDrain()
	done := make(chan struct{})
	go func() {
		s.mu.Lock()
		for s.active > 0 {
			s.cond.Wait()
		}
		s.mu.Unlock()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// enter registers one request with the drain protocol. It fails once
// draining has begun.
func (s *Service) enter() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.active++
	return true
}

func (s *Service) leave() {
	s.mu.Lock()
	s.active--
	if s.active == 0 {
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

// admit runs the bounded-queue admission: take a slot if one is free,
// otherwise wait in the queue unless it is already full (saturation)
// or the caller gives up (ctx). release must be called exactly once
// after the work is done.
func (s *Service) admit(ctx context.Context) (release func(), apiErr *APIError) {
	if !s.enter() {
		s.rejectedDraining.Add(1)
		s.reg.Counter("ccmd.rejected_draining").Inc()
		return nil, &APIError{Status: http.StatusServiceUnavailable, Code: CodeDraining,
			Message:    "the service is draining for shutdown",
			RetryAfter: s.RetryAfterSeconds()}
	}
	release = func() {
		<-s.slots
		s.inflight.Add(-1)
		s.reg.Gauge("ccmd.inflight").Set(s.inflight.Load())
		s.leave()
	}
	select {
	case s.slots <- struct{}{}: // free slot: no queueing
		s.inflight.Add(1)
		s.reg.Gauge("ccmd.inflight").Set(s.inflight.Load())
		return release, nil
	default:
	}
	// All slots busy: the request must queue, unless the queue is full.
	if q := s.queued.Add(1); q > int64(s.cfg.MaxQueue) {
		s.queued.Add(-1)
		s.leave()
		s.rejectedSaturated.Add(1)
		s.reg.Counter("ccmd.rejected_saturated").Inc()
		return nil, &APIError{Status: http.StatusTooManyRequests, Code: CodeSaturated,
			Message: fmt.Sprintf("admission queue full (%d running, %d queued); retry later",
				s.cfg.MaxInflight, s.cfg.MaxQueue),
			RetryAfter: s.RetryAfterSeconds()}
	}
	s.reg.Gauge("ccmd.queued").Set(s.queued.Load())
	defer func() {
		s.queued.Add(-1)
		s.reg.Gauge("ccmd.queued").Set(s.queued.Load())
	}()
	select {
	case s.slots <- struct{}{}:
		s.inflight.Add(1)
		s.reg.Gauge("ccmd.inflight").Set(s.inflight.Load())
		return release, nil
	case <-ctx.Done():
		s.leave()
		return nil, &APIError{Status: 499, Code: CodeCanceled,
			Message: "client went away while queued: " + ctx.Err().Error()}
	}
}

// parseProgram bounds, parses, and verifies request program text. A
// text the memo holds is neither parsed nor verified again; a text that
// fails either never enters the memo, so it is refused alike every time.
// The request gets its own Funcs slice over the memo's shared functions
// and globals: a compile replaces the slice's entries, never the
// functions.
func (s *Service) parseProgram(text string) (*ir.Program, *APIError) {
	if text == "" {
		return nil, errBadRequest("program", "empty program")
	}
	if int64(len(text)) > s.cfg.MaxProgramBytes {
		return nil, errBadRequest("program", "program is %d bytes; the service accepts at most %d",
			len(text), s.cfg.MaxProgramBytes)
	}
	p, ok := s.memo.get(text)
	if ok {
		s.reg.Counter("ccmd.parse_memo.hits").Inc()
	} else {
		s.reg.Counter("ccmd.parse_memo.misses").Inc()
		var err error
		if p, err = ir.Parse(text); err != nil {
			return nil, errBadProgram(err)
		}
		if err := ir.VerifyProgram(p, ir.VerifyOptions{}); err != nil {
			return nil, errBadProgram(err)
		}
		s.memo.put(text, p)
	}
	return &ir.Program{Globals: p.Globals, Funcs: append([]*ir.Func(nil), p.Funcs...)}, nil
}

// pipelineConfig validates the request's config subset and maps it onto
// a pipeline.Config. Pure function of its inputs — the tenant-isolation
// tests call it directly.
func (s *Service) pipelineConfig(req *CompileRequest) (pipeline.Config, *APIError) {
	var zero pipeline.Config
	strat, err := pipeline.ParseStrategy(strategyOrDefault(req.Config.Strategy))
	if err != nil {
		return zero, errBadRequest("config.strategy", "%v", err)
	}
	diff, err := pipeline.ParseDiffCheck(diffOrDefault(req.Config.DiffCheck))
	if err != nil {
		return zero, errBadRequest("config.diff_check", "%v", err)
	}
	if strat != pipeline.NoCCM && req.Config.CCMBytes <= 0 {
		return zero, errBadRequest("config.ccm_bytes", "strategy %q requires ccm_bytes > 0", strat)
	}
	// The pipeline rejects the same sizes, but as a compile error, which
	// would surface as a 500.
	if c := req.Config.CCMBytes; c < 0 || c%ir.WordBytes != 0 || c > sim.MaxCCMBytes {
		return zero, errBadRequest("config.ccm_bytes", "must be a multiple of %d in [0, %d], got %d",
			ir.WordBytes, sim.MaxCCMBytes, c)
	}
	if req.Config.IntRegs < 0 {
		return zero, errBadRequest("config.int_regs", "must be >= 0, got %d", req.Config.IntRegs)
	}
	if req.Config.FloatRegs < 0 {
		return zero, errBadRequest("config.float_regs", "must be >= 0, got %d", req.Config.FloatRegs)
	}
	// The pipeline rejects the same sum, but as a compile error, which
	// would surface as a 500.
	if ni, nf := regsOrDefault(req.Config.IntRegs), regsOrDefault(req.Config.FloatRegs); ni > ir.MaxRegs-nf {
		field := "config.int_regs"
		if nf > ni {
			field = "config.float_regs"
		}
		return zero, errBadRequest(field, "int_regs + float_regs must be <= %d, got %d + %d", ir.MaxRegs, ni, nf)
	}
	if req.Config.DiffVectors < 0 {
		return zero, errBadRequest("config.diff_vectors", "must be >= 0, got %d", req.Config.DiffVectors)
	}
	cfg := pipeline.Config{
		Strategy:          strat,
		IntRegs:           req.Config.IntRegs,
		FloatRegs:         req.Config.FloatRegs,
		DisableOptimizer:  req.Config.DisableOptimizer,
		DisableCompaction: req.Config.DisableCompaction,
		VerifyPasses:      req.Config.VerifyPasses,
		Strict:            req.Config.Strict,
		DiffCheck:         diff,
		DiffVectors:       req.Config.DiffVectors,
	}
	if strat != pipeline.NoCCM {
		cfg.CCMBytes = req.Config.CCMBytes
	}
	// Tenant-scoped repro namespace: bundles from this request land
	// under <ReproDir>/<tenant>/ and nowhere else.
	if req.Options.Repro && s.cfg.ReproDir != "" {
		dir, rerr := repro.TenantDir(s.cfg.ReproDir, tenantOrDefault(req.Tenant))
		if rerr != nil {
			return zero, errBadRequest("tenant", "%v", rerr)
		}
		cfg.ReproDir = dir
	}
	return cfg, nil
}

func strategyOrDefault(s string) string {
	if s == "" {
		return "none"
	}
	return s
}

// regsOrDefault is the register count a compile uses: 0 selects the
// pipeline's default.
func regsOrDefault(n int) int {
	if n == 0 {
		return pipeline.DefaultRegs
	}
	return n
}

func diffOrDefault(s string) string {
	if s == "" {
		return "off"
	}
	return s
}

func tenantOrDefault(t string) string {
	if t == "" {
		return "default"
	}
	return t
}

// Compile serves one compile request end to end: validate, admit
// (bounded queue), compile on the shared driver, and package
// the artifact with its report (and trace, when requested).
func (s *Service) Compile(ctx context.Context, req *CompileRequest) (*CompileResponse, *APIError) {
	s.requests.Add(1)
	s.reg.Counter("ccmd.requests").Inc()
	if req.Tenant != "" && !repro.ValidTenant(req.Tenant) {
		return nil, errBadRequest("tenant", "invalid tenant %q (want 1-64 chars of [A-Za-z0-9._-], starting alphanumeric)", req.Tenant)
	}
	p, apiErr := s.parseProgram(req.Program)
	if apiErr != nil {
		return nil, apiErr
	}
	// Validate before admission, so a request that can never succeed is
	// refused as such and not told to retry after a 429 or 503.
	cfg, apiErr := s.pipelineConfig(req)
	if apiErr != nil {
		return nil, apiErr
	}
	release, apiErr := s.admit(ctx)
	if apiErr != nil {
		return nil, apiErr
	}
	defer release()
	if s.testCompileHook != nil {
		s.testCompileHook()
	}

	var tracer *obs.Tracer
	if req.Options.Trace {
		tracer = obs.NewTracer()
		s.traceRequests.Add(1)
		s.reg.Counter("ccmd.trace_requests").Inc()
	}
	rep, err := s.drv.CompileTraced(ctx, p, cfg, tracer)
	if err != nil {
		return nil, compileAPIError(err)
	}
	resp := &CompileResponse{
		Output: p.String(),
		Report: rep,
	}
	if tracer != nil {
		spans := tracer.Spans()
		s.retainTrace(spans)
		var buf bytes.Buffer
		if werr := obs.WriteChromeTraceSpans(&buf, spans); werr == nil {
			resp.Trace = json.RawMessage(bytes.TrimSpace(buf.Bytes()))
		}
	}
	return resp, nil
}

// compileAPIError maps a pipeline error onto the typed wire error.
func compileAPIError(err error) *APIError {
	var me *pipeline.MiscompileError
	if errors.As(err, &me) {
		return &APIError{Status: http.StatusUnprocessableEntity, Code: CodeMiscompile, Message: me.Error()}
	}
	var ce *pipeline.CompileError
	if errors.As(err, &ce) {
		return &APIError{Status: http.StatusUnprocessableEntity, Code: CodeCompileFault, Message: ce.Error()}
	}
	if errors.Is(err, sim.ErrAddressSpace) {
		return errBadProgram(err)
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return &APIError{Status: 499, Code: CodeCanceled, Message: err.Error()}
	}
	return &APIError{Status: http.StatusInternalServerError, Code: CodeInternal, Message: err.Error()}
}

// retainTrace appends one request's span batch, stamped with a fresh
// PID, evicting oldest batches over the retention bound.
func (s *Service) retainTrace(spans []obs.Span) {
	if len(spans) == 0 {
		return
	}
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	s.nextPID++
	pid := s.nextPID
	batch := make([]obs.Span, len(spans))
	copy(batch, spans)
	for i := range batch {
		batch[i].PID = pid
	}
	s.traceBatch = append(s.traceBatch, batch)
	s.totalSpans += len(batch)
	for s.totalSpans > s.cfg.MaxTraceSpans && len(s.traceBatch) > 1 {
		s.totalSpans -= len(s.traceBatch[0])
		s.traceBatch = s.traceBatch[1:]
	}
}

// TraceSpans returns the retained spans of recent traced requests, one
// PID per request, oldest first.
func (s *Service) TraceSpans() []obs.Span {
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	var out []obs.Span
	for _, b := range s.traceBatch {
		out = append(out, b...)
	}
	return out
}

// Run serves one execution request on the instrumented simulator. Runs
// go through the same admission queue as compiles — simulation is CPU
// work too — and are bounded by the service's step and depth ceilings
// and by ctx: once the client hangs up, or a drain closes its
// connection, the run stops at its next block boundary and frees its
// slot, answered 499 canceled as a compile is.
func (s *Service) Run(ctx context.Context, req *RunRequest) (*RunResponse, *APIError) {
	s.requests.Add(1)
	s.reg.Counter("ccmd.requests").Inc()
	p, apiErr := s.parseProgram(req.Program)
	if apiErr != nil {
		return nil, apiErr
	}
	if req.MaxSteps < 0 {
		return nil, errBadRequest("max_steps", "must be >= 0, got %d", req.MaxSteps)
	}
	if req.MaxDepth < 0 {
		return nil, errBadRequest("max_depth", "must be >= 0, got %d", req.MaxDepth)
	}
	if req.CCMBytes < 0 {
		return nil, errBadRequest("ccm_bytes", "must be >= 0, got %d", req.CCMBytes)
	}
	if req.MemCost < 0 {
		return nil, errBadRequest("mem_cost", "must be >= 0, got %d", req.MemCost)
	}
	entry := req.Entry
	if entry == "" {
		entry = "main"
	}
	if p.Func(entry) == nil {
		return nil, errBadRequest("entry", "program has no function %q", entry)
	}
	release, apiErr := s.admit(ctx)
	if apiErr != nil {
		return nil, apiErr
	}
	defer release()
	if s.testCompileHook != nil {
		s.testCompileHook()
	}
	steps := req.MaxSteps
	if steps <= 0 || steps > s.cfg.MaxRunSteps {
		steps = s.cfg.MaxRunSteps
	}
	m, err := sim.New(p, sim.Config{
		MemCost:  req.MemCost,
		CCMBytes: req.CCMBytes,
		MaxSteps: steps,
		MaxDepth: min(req.MaxDepth, sim.DefaultMaxDepth),
	})
	if err != nil {
		return nil, &APIError{Status: http.StatusUnprocessableEntity, Code: CodeRunFault, Message: err.Error()}
	}
	st, err := m.RunContext(ctx, entry)
	if err != nil {
		var f *sim.Fault
		if errors.As(err, &f) && f.Kind == sim.FaultCancelled {
			return nil, &APIError{Status: 499, Code: CodeCanceled, Message: err.Error()}
		}
		return nil, &APIError{Status: http.StatusUnprocessableEntity, Code: CodeRunFault, Message: err.Error()}
	}
	resp := &RunResponse{
		Instrs:      st.Instrs,
		Cycles:      st.Cycles,
		MemOpCycles: st.MemOpCycles,
		MainMemOps:  st.MainMemOps,
		CCMOps:      st.CCMOps,
		SpillStores: st.SpillStores,
		SpillLoads:  st.SpillLoads,
		CCMSpills:   st.CCMSpills,
		CCMRestores: st.CCMRestores,
	}
	for _, v := range st.Output {
		resp.Output = append(resp.Output, v.String())
	}
	return resp, nil
}

// Report returns the shared driver's cumulative report (GET /report).
func (s *Service) Report() *pipeline.Report { return s.drv.Metrics() }

// Stats snapshots the service's admission counters.
func (s *Service) Stats() ServiceStats {
	return ServiceStats{
		Requests:          s.requests.Load(),
		Inflight:          s.inflight.Load(),
		Queued:            s.queued.Load(),
		MaxInflight:       s.cfg.MaxInflight,
		MaxQueue:          s.cfg.MaxQueue,
		RejectedSaturated: s.rejectedSaturated.Load(),
		RejectedDraining:  s.rejectedDraining.Load(),
		TraceRequests:     s.traceRequests.Load(),
		Draining:          s.Draining(),
		Unauthorized:      s.unauthorized.Load(),
		RemoteCircuit:     s.drv.RemoteCircuit(),
	}
}

// Metrics returns the shared registry snapshot (nil when the driver
// runs without metrics).
func (s *Service) Metrics() *obs.Snapshot { return s.reg.Snapshot() }

// RetryAfterSeconds is the configured backoff hint in whole seconds,
// rounded up with a floor of 1 so a sub-second setting still sends a
// hint. Every 429/503 and the draining /readyz use it.
func (s *Service) RetryAfterSeconds() int {
	return max(1, int((s.cfg.RetryAfter+time.Second-1)/time.Second))
}
