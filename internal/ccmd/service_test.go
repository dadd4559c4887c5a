package ccmd

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"path/filepath"
	"testing"
	"time"

	"ccmem/internal/ir"
	"ccmem/internal/obs"
	"ccmem/internal/pipeline"
	"ccmem/internal/sim"
	"ccmem/internal/workload"
)

// newTestService builds a service over a fresh driver. Mutate cfg via
// mut before construction (Driver is filled in here).
func newTestService(t *testing.T, mut func(*Config)) *Service {
	t.Helper()
	cfg := Config{
		Driver: pipeline.New(pipeline.Options{Workers: 2, Metrics: obs.NewRegistry()}),
	}
	if mut != nil {
		mut(&cfg)
	}
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	return svc
}

func testProgram(t *testing.T, seed int64) string {
	t.Helper()
	return workload.RandomProgram(seed).String()
}

// soloCompile is the reference: what a lone ccmc run of the same
// program and config prints.
func soloCompile(t *testing.T, text string, cfg pipeline.Config) string {
	t.Helper()
	p := mustParse(t, text)
	drv := pipeline.New(pipeline.Options{Workers: 1, DisableCache: true})
	if _, err := drv.Compile(p, cfg); err != nil {
		t.Fatalf("solo compile: %v", err)
	}
	return p.String()
}

func mustParse(t *testing.T, text string) *ir.Program {
	t.Helper()
	p, err := ir.Parse(text)
	if err != nil {
		t.Fatalf("ir.Parse: %v", err)
	}
	return p
}

func TestCompileMatchesSolo(t *testing.T) {
	svc := newTestService(t, nil)
	text := testProgram(t, 1)
	req := &CompileRequest{
		Program: text,
		Config:  RequestConfig{Strategy: "postpass", CCMBytes: 512},
	}
	resp, apiErr := svc.Compile(context.Background(), req)
	if apiErr != nil {
		t.Fatalf("Compile: %v", apiErr)
	}
	want := soloCompile(t, text, pipeline.Config{
		Strategy: pipeline.PostPass, CCMBytes: 512,
	})
	if resp.Output != want {
		t.Fatalf("service output differs from solo ccmc compile")
	}
	if resp.Report == nil || resp.Report.Funcs == 0 {
		t.Fatalf("response carries no report: %+v", resp.Report)
	}
}

func TestCompileValidation(t *testing.T) {
	svc := newTestService(t, nil)
	cases := []struct {
		name   string
		req    CompileRequest
		status int
		code   string
		field  string
	}{
		{"empty program", CompileRequest{}, 400, CodeBadRequest, "program"},
		{"parse error", CompileRequest{Program: "not iloc at all"}, 422, CodeBadProgram, "program"},
		{"bad strategy", CompileRequest{Program: testProgram(t, 2),
			Config: RequestConfig{Strategy: "turbo"}}, 400, CodeBadRequest, "config.strategy"},
		{"bad diff", CompileRequest{Program: testProgram(t, 2),
			Config: RequestConfig{DiffCheck: "sometimes"}}, 400, CodeBadRequest, "config.diff_check"},
		{"removed per-stage diff", CompileRequest{Program: testProgram(t, 2),
			Config: RequestConfig{DiffCheck: "per-stage"}}, 400, CodeBadRequest, "config.diff_check"},
		{"ccm without bytes", CompileRequest{Program: testProgram(t, 2),
			Config: RequestConfig{Strategy: "postpass"}}, 400, CodeBadRequest, "config.ccm_bytes"},
		{"negative workers", CompileRequest{Program: testProgram(t, 2),
			Config: RequestConfig{Workers: -1}}, 400, CodeBadRequest, "config.workers"},
		{"negative timeout", CompileRequest{Program: testProgram(t, 2),
			Config: RequestConfig{TimeoutMS: -5}}, 400, CodeBadRequest, "config.timeout_ms"},
		{"negative int regs", CompileRequest{Program: testProgram(t, 2),
			Config: RequestConfig{IntRegs: -1}}, 400, CodeBadRequest, "config.int_regs"},
		{"negative float regs", CompileRequest{Program: testProgram(t, 2),
			Config: RequestConfig{FloatRegs: -3}}, 400, CodeBadRequest, "config.float_regs"},
		{"oversized int regs", CompileRequest{Program: testProgram(t, 2),
			Config: RequestConfig{IntRegs: 1 << 22}}, 400, CodeBadRequest, "config.int_regs"},
		{"oversized float regs", CompileRequest{Program: testProgram(t, 2),
			Config: RequestConfig{FloatRegs: ir.MaxRegs - 31}}, 400, CodeBadRequest, "config.float_regs"},
		{"int regs summing past MaxInt", CompileRequest{Program: testProgram(t, 2),
			Config: RequestConfig{IntRegs: math.MaxInt}}, 400, CodeBadRequest, "config.int_regs"},
		{"bad tenant", CompileRequest{Program: testProgram(t, 2),
			Tenant: "../escape"}, 400, CodeBadRequest, "tenant"},
		{"tenant with slash", CompileRequest{Program: testProgram(t, 2),
			Tenant: "a/b"}, 400, CodeBadRequest, "tenant"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, apiErr := svc.Compile(context.Background(), &tc.req)
			if apiErr == nil {
				t.Fatalf("want error, got success")
			}
			if apiErr.Status != tc.status || apiErr.Code != tc.code || apiErr.Field != tc.field {
				t.Fatalf("got status=%d code=%q field=%q, want %d %q %q",
					apiErr.Status, apiErr.Code, apiErr.Field, tc.status, tc.code, tc.field)
			}
		})
	}
}

func TestProgramSizeBound(t *testing.T) {
	svc := newTestService(t, func(c *Config) { c.MaxProgramBytes = 64 })
	req := &CompileRequest{Program: testProgram(t, 1)}
	_, apiErr := svc.Compile(context.Background(), req)
	if apiErr == nil || apiErr.Status != 400 || apiErr.Field != "program" {
		t.Fatalf("oversized program not rejected: %v", apiErr)
	}
}

// TestPipelineConfigTenant pins the per-tenant repro namespace: bundles
// land under <base>/<tenant> exactly when the request opts in and the
// service has a repro directory.
func TestPipelineConfigTenant(t *testing.T) {
	base := t.TempDir()
	svc := newTestService(t, func(c *Config) { c.ReproDir = base })
	req := &CompileRequest{Tenant: "team-a", Options: RequestOptions{Repro: true}}
	cfg, apiErr := svc.pipelineConfig(req)
	if apiErr != nil {
		t.Fatalf("pipelineConfig: %v", apiErr)
	}
	if want := filepath.Join(base, "team-a"); cfg.ReproDir != want {
		t.Fatalf("ReproDir = %q, want %q", cfg.ReproDir, want)
	}

	// No tenant named: the "default" namespace, never the bare base dir.
	cfg, _ = svc.pipelineConfig(&CompileRequest{Options: RequestOptions{Repro: true}})
	if want := filepath.Join(base, "default"); cfg.ReproDir != want {
		t.Fatalf("default ReproDir = %q, want %q", cfg.ReproDir, want)
	}

	// Not opted in: no bundles at all.
	cfg, _ = svc.pipelineConfig(&CompileRequest{Tenant: "team-a"})
	if cfg.ReproDir != "" {
		t.Fatalf("ReproDir = %q without Options.Repro", cfg.ReproDir)
	}

	// Service without a repro dir: opting in is a no-op.
	svc2 := newTestService(t, nil)
	cfg, _ = svc2.pipelineConfig(&CompileRequest{Options: RequestOptions{Repro: true}})
	if cfg.ReproDir != "" {
		t.Fatalf("ReproDir = %q with repro disabled service-wide", cfg.ReproDir)
	}
}

func TestTimeoutClamp(t *testing.T) {
	svc := newTestService(t, func(c *Config) { c.MaxFuncTimeout = time.Second })
	cfg, apiErr := svc.pipelineConfig(&CompileRequest{
		Config: RequestConfig{TimeoutMS: 60_000},
	})
	if apiErr != nil {
		t.Fatalf("pipelineConfig: %v", apiErr)
	}
	if cfg.FuncTimeout != time.Second {
		t.Fatalf("FuncTimeout = %v, want clamp to 1s", cfg.FuncTimeout)
	}
}

// TestSaturation drives the bounded queue to the 429: with one slot and
// a queue of one, a third concurrent request must bounce with
// CodeSaturated and a Retry-After hint.
func TestSaturation(t *testing.T) {
	svc := newTestService(t, func(c *Config) {
		c.MaxInflight = 1
		c.MaxQueue = 1
		c.RetryAfter = 7 * time.Second
	})
	hold := make(chan struct{})
	entered := make(chan struct{}, 8)
	svc.testCompileHook = func() {
		entered <- struct{}{}
		<-hold
	}
	text := testProgram(t, 3)
	results := make(chan *APIError, 2)
	go func() {
		_, apiErr := svc.Compile(context.Background(), &CompileRequest{Program: text})
		results <- apiErr
	}()
	<-entered // request 1 is inflight, holding the only slot

	go func() {
		_, apiErr := svc.Compile(context.Background(), &CompileRequest{Program: text})
		results <- apiErr
	}()
	// Request 2 must reach the queue before request 3 tries admission.
	waitFor(t, func() bool { return svc.Stats().Queued == 1 })

	_, apiErr := svc.Compile(context.Background(), &CompileRequest{Program: text})
	if apiErr == nil {
		t.Fatalf("third request admitted past a full queue")
	}
	if apiErr.Status != http.StatusTooManyRequests || apiErr.Code != CodeSaturated {
		t.Fatalf("got %d %q, want 429 %q", apiErr.Status, apiErr.Code, CodeSaturated)
	}
	if apiErr.RetryAfter != 7 {
		t.Fatalf("RetryAfter = %d, want 7", apiErr.RetryAfter)
	}
	if n := svc.Stats().RejectedSaturated; n != 1 {
		t.Fatalf("RejectedSaturated = %d, want 1", n)
	}

	close(hold) // let 1 finish and 2 run
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatalf("held request failed: %v", err)
		}
	}
}

// TestConfigValidatedBeforeAdmission: a request whose config can never
// compile is refused as a 400 on its field even when admission would
// have refused it with a retryable 429 or 503.
func TestConfigValidatedBeforeAdmission(t *testing.T) {
	svc := newTestService(t, func(c *Config) {
		c.MaxInflight = 1
		c.MaxQueue = 1
	})
	hold := make(chan struct{})
	entered := make(chan struct{}, 8)
	svc.testCompileHook = func() {
		entered <- struct{}{}
		<-hold
	}
	text := testProgram(t, 3)
	results := make(chan *APIError, 2)
	for range 2 {
		go func() {
			_, apiErr := svc.Compile(context.Background(), &CompileRequest{Program: text})
			results <- apiErr
		}()
	}
	// One request holds the only slot and the other fills the queue.
	<-entered
	waitFor(t, func() bool { return svc.Stats().Queued == 1 })

	bogus := &CompileRequest{Program: text, Config: RequestConfig{Strategy: "bogus"}}
	check := func(when string) {
		t.Helper()
		_, apiErr := svc.Compile(context.Background(), bogus)
		if apiErr == nil || apiErr.Status != http.StatusBadRequest || apiErr.Field != "config.strategy" {
			t.Fatalf("%s: got %v, want 400 on config.strategy", when, apiErr)
		}
	}
	check("saturated")
	svc.BeginDrain()
	check("draining")

	close(hold)
	for range 2 {
		if err := <-results; err != nil {
			t.Fatalf("held request failed: %v", err)
		}
	}
}

// TestQueuedClientGivesUp: a queued request whose context dies leaves
// the queue without consuming a slot.
func TestQueuedClientGivesUp(t *testing.T) {
	svc := newTestService(t, func(c *Config) { c.MaxInflight = 1; c.MaxQueue = 4 })
	hold := make(chan struct{})
	entered := make(chan struct{}, 1)
	svc.testCompileHook = func() {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-hold
	}
	defer close(hold)
	text := testProgram(t, 3)
	go svc.Compile(context.Background(), &CompileRequest{Program: text})
	<-entered

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan *APIError, 1)
	go func() {
		_, apiErr := svc.Compile(ctx, &CompileRequest{Program: text})
		done <- apiErr
	}()
	waitFor(t, func() bool { return svc.Stats().Queued == 1 })
	cancel()
	apiErr := <-done
	if apiErr == nil || apiErr.Code != CodeCanceled {
		t.Fatalf("got %v, want %q", apiErr, CodeCanceled)
	}
	waitFor(t, func() bool { return svc.Stats().Queued == 0 })
}

func TestDrain(t *testing.T) {
	svc := newTestService(t, func(c *Config) { c.MaxInflight = 2 })
	hold := make(chan struct{})
	entered := make(chan struct{}, 1)
	svc.testCompileHook = func() {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-hold
	}
	text := testProgram(t, 4)
	done := make(chan *APIError, 1)
	go func() {
		_, apiErr := svc.Compile(context.Background(), &CompileRequest{Program: text})
		done <- apiErr
	}()
	<-entered

	svc.BeginDrain()
	if !svc.Draining() {
		t.Fatalf("Draining() false after BeginDrain")
	}
	// New work is refused with the draining error...
	_, apiErr := svc.Compile(context.Background(), &CompileRequest{Program: text})
	if apiErr == nil || apiErr.Status != http.StatusServiceUnavailable || apiErr.Code != CodeDraining {
		t.Fatalf("got %v, want 503 %q", apiErr, CodeDraining)
	}
	// ...and Drain waits for the in-flight request, not forever.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	if err := svc.Drain(ctx); err == nil {
		t.Fatalf("Drain returned before the in-flight request finished")
	}
	cancel()
	close(hold)
	if err := <-done; err != nil {
		t.Fatalf("in-flight request failed during drain: %v", err)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := svc.Drain(ctx2); err != nil {
		t.Fatalf("Drain after completion: %v", err)
	}
	if n := svc.Stats().RejectedDraining; n != 1 {
		t.Fatalf("RejectedDraining = %d, want 1", n)
	}
}

func TestRunEndpoint(t *testing.T) {
	svc := newTestService(t, nil)
	text := testProgram(t, 5)
	resp, apiErr := svc.Run(context.Background(), &RunRequest{Program: text, CCMBytes: 512})
	if apiErr != nil {
		t.Fatalf("Run: %v", apiErr)
	}
	st, err := sim.Run(mustParse(t, text), "main", sim.Config{CCMBytes: 512})
	if err != nil {
		t.Fatalf("sim.Run: %v", err)
	}
	if resp.Cycles != st.Cycles || resp.Instrs != st.Instrs {
		t.Fatalf("service run (%d cycles, %d instrs) != direct sim (%d, %d)",
			resp.Cycles, resp.Instrs, st.Cycles, st.Instrs)
	}
	if len(resp.Output) != len(st.Output) {
		t.Fatalf("output length %d != %d", len(resp.Output), len(st.Output))
	}
	for i := range resp.Output {
		if resp.Output[i] != st.Output[i].String() {
			t.Fatalf("output[%d] = %q, want %q", i, resp.Output[i], st.Output[i])
		}
	}

	if _, apiErr := svc.Run(context.Background(), &RunRequest{Program: text, Entry: "nope"}); apiErr == nil || apiErr.Field != "entry" {
		t.Fatalf("missing entry not rejected: %v", apiErr)
	}
}

// TestRunNegativeBoundNamesItsField: each negative bound or cost on a
// run request is a 400 naming that field, not always max_steps.
func TestRunNegativeBoundNamesItsField(t *testing.T) {
	svc := newTestService(t, nil)
	text := testProgram(t, 4)
	cases := []struct {
		field string
		req   RunRequest
	}{
		{"max_steps", RunRequest{Program: text, MaxSteps: -1}},
		{"max_depth", RunRequest{Program: text, MaxDepth: -1}},
		{"ccm_bytes", RunRequest{Program: text, CCMBytes: -1}},
		{"mem_cost", RunRequest{Program: text, MemCost: -1}},
	}
	for _, tc := range cases {
		t.Run(tc.field, func(t *testing.T) {
			_, apiErr := svc.Run(context.Background(), &tc.req)
			if apiErr == nil || apiErr.Status != http.StatusBadRequest || apiErr.Code != CodeBadRequest || apiErr.Field != tc.field {
				t.Fatalf("got %v, want 400 %q on field %s", apiErr, CodeBadRequest, tc.field)
			}
		})
	}
}

// TestRunStepCeiling: a runaway program is cut off by the service's
// step ceiling as a typed run fault, not a hung worker.
func TestRunStepCeiling(t *testing.T) {
	svc := newTestService(t, func(c *Config) { c.MaxRunSteps = 100 })
	text := testProgram(t, 5)
	_, apiErr := svc.Run(context.Background(), &RunRequest{Program: text, MaxSteps: 1 << 40})
	if apiErr == nil || apiErr.Code != CodeRunFault {
		t.Fatalf("got %v, want %q after 100 steps", apiErr, CodeRunFault)
	}
}

func TestTraceRing(t *testing.T) {
	svc := newTestService(t, nil)
	text := testProgram(t, 6)
	for i := 0; i < 2; i++ {
		resp, apiErr := svc.Compile(context.Background(), &CompileRequest{
			Program: text,
			Config:  RequestConfig{Strategy: "postpass", CCMBytes: 256},
			Options: RequestOptions{Trace: true},
		})
		if apiErr != nil {
			t.Fatalf("Compile: %v", apiErr)
		}
		if len(resp.Trace) == 0 {
			t.Fatalf("traced request %d returned no trace", i)
		}
		var trace struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		if err := json.Unmarshal(resp.Trace, &trace); err != nil {
			t.Fatalf("trace is not valid JSON: %v", err)
		}
		if len(trace.TraceEvents) == 0 {
			t.Fatalf("trace has no events")
		}
	}
	spans := svc.TraceSpans()
	if len(spans) == 0 {
		t.Fatalf("trace ring is empty after two traced requests")
	}
	pids := map[int]bool{}
	for _, sp := range spans {
		pids[sp.PID] = true
	}
	if len(pids) != 2 {
		t.Fatalf("want 2 distinct PIDs in the ring, got %d", len(pids))
	}
	if n := svc.Stats().TraceRequests; n != 2 {
		t.Fatalf("TraceRequests = %d, want 2", n)
	}
}

// TestTraceRingBound: retention evicts oldest whole batches.
func TestTraceRingBound(t *testing.T) {
	svc := newTestService(t, func(c *Config) { c.MaxTraceSpans = 3 })
	mk := func(n int) []obs.Span {
		s := make([]obs.Span, n)
		for i := range s {
			s[i].Name = "x"
		}
		return s
	}
	svc.retainTrace(mk(2))
	svc.retainTrace(mk(2)) // 4 > 3: evicts the first batch
	spans := svc.TraceSpans()
	if len(spans) != 2 {
		t.Fatalf("ring holds %d spans, want 2", len(spans))
	}
	if spans[0].PID != 2 {
		t.Fatalf("oldest batch not evicted: PID %d survives", spans[0].PID)
	}
}

// TestWorkersHintByteIdentity: a request-level workers hint may change
// scheduling, never bytes, and clamps to the shared pool's size.
func TestWorkersHintByteIdentity(t *testing.T) {
	svc := newTestService(t, nil)
	text := testProgram(t, 7)
	var outs []string
	for _, w := range []int{0, 1, 2, 64} {
		resp, apiErr := svc.Compile(context.Background(), &CompileRequest{
			Program: text,
			Config:  RequestConfig{Strategy: "integrated", CCMBytes: 512, Workers: w},
		})
		if apiErr != nil {
			t.Fatalf("workers=%d: %v", w, apiErr)
		}
		outs = append(outs, resp.Output)
	}
	for i := 1; i < len(outs); i++ {
		if outs[i] != outs[0] {
			t.Fatalf("workers hint changed output bytes")
		}
	}
	// The over-ask never built a bigger pool.
	if d := svc.driverFor(64); d != svc.Driver() {
		t.Fatalf("workers hint above the pool was not clamped to the shared driver")
	}
	if d := svc.driverFor(1); d == svc.Driver() {
		t.Fatalf("workers=1 hint did not build a private driver")
	}
}

func TestMetricsAndReport(t *testing.T) {
	svc := newTestService(t, nil)
	text := testProgram(t, 8)
	if _, apiErr := svc.Compile(context.Background(), &CompileRequest{Program: text}); apiErr != nil {
		t.Fatalf("Compile: %v", apiErr)
	}
	st := svc.Stats()
	if st.Requests != 1 || st.Inflight != 0 || st.Queued != 0 {
		t.Fatalf("stats after one request: %+v", st)
	}
	rep := svc.Report()
	if rep == nil || rep.Funcs == 0 {
		t.Fatalf("driver report empty after a compile")
	}
	snap := svc.Metrics()
	if snap == nil || snap.Counters["ccmd.requests"] != 1 {
		t.Fatalf("registry snapshot missing ccmd.requests: %+v", snap)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("condition not reached in 5s")
		}
		time.Sleep(time.Millisecond)
	}
}
