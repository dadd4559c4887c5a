package ccmd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ccmem/internal/obs"
	"ccmem/internal/pipeline"
	"ccmem/internal/remotecache"
	"ccmem/internal/sim"
)

func newTestHTTP(t *testing.T, mut func(*Config)) (*Service, *httptest.Server) {
	t.Helper()
	svc := newTestService(t, mut)
	ts := httptest.NewServer(Handler(svc, "test-version", ""))
	t.Cleanup(ts.Close)
	return svc, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return v
}

type errEnvelope struct {
	Error *APIError `json:"error"`
}

func TestHTTPCompile(t *testing.T) {
	_, ts := newTestHTTP(t, nil)
	text := testProgram(t, 11)
	resp := postJSON(t, ts.URL+"/compile", CompileRequest{
		Program: text,
		Config:  RequestConfig{Strategy: "postpass", CCMBytes: 512},
	})
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	out := decodeBody[CompileResponse](t, resp)
	want := soloCompile(t, text, pipelineConfigFor(t, "postpass", 512))
	if out.Output != want {
		t.Fatalf("HTTP output differs from solo compile")
	}
	if out.Report == nil {
		t.Fatalf("no report in response")
	}
}

func pipelineConfigFor(t *testing.T, strategy string, ccm int64) pipeline.Config {
	t.Helper()
	svc := newTestService(t, nil)
	pc, apiErr := svc.pipelineConfig(&CompileRequest{
		Config: RequestConfig{Strategy: strategy, CCMBytes: ccm},
	})
	if apiErr != nil {
		t.Fatalf("pipelineConfig: %v", apiErr)
	}
	return pc
}

func TestHTTPValidation(t *testing.T) {
	_, ts := newTestHTTP(t, nil)

	// Unknown fields are 400s, not silent drops.
	resp, err := http.Post(ts.URL+"/compile", "application/json",
		strings.NewReader(`{"program": "x", "turbo": true}`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	if resp.StatusCode != 400 {
		t.Fatalf("unknown field: status %d, want 400", resp.StatusCode)
	}
	if e := decodeBody[errEnvelope](t, resp); e.Error == nil || e.Error.Code != CodeBadRequest {
		t.Fatalf("unknown field error: %+v", e.Error)
	}

	// Wrong content type.
	resp, err = http.Post(ts.URL+"/compile", "text/plain", strings.NewReader("{}"))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("content type: status %d, want 415", resp.StatusCode)
	}

	// The media type's type and subtype are case-insensitive (RFC 9110
	// §8.3.1): the body reaches the parser.
	resp, err = http.Post(ts.URL+"/compile", "Application/JSON; charset=utf-8",
		strings.NewReader(`{"program": "definitely not iloc"}`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	if e := decodeBody[errEnvelope](t, resp); resp.StatusCode != 422 || e.Error == nil || e.Error.Code != CodeBadProgram {
		t.Fatalf("Application/JSON: status %d, error %+v, want 422 %s", resp.StatusCode, e.Error, CodeBadProgram)
	}

	// Unparseable program is a 422 with the typed code.
	resp = postJSON(t, ts.URL+"/compile", CompileRequest{Program: "definitely not iloc"})
	if resp.StatusCode != 422 {
		t.Fatalf("bad program: status %d, want 422", resp.StatusCode)
	}
	if e := decodeBody[errEnvelope](t, resp); e.Error == nil || e.Error.Code != CodeBadProgram {
		t.Fatalf("bad program error: %+v", e.Error)
	}

	// Trailing garbage after the JSON object.
	resp, err = http.Post(ts.URL+"/compile", "application/json",
		strings.NewReader(`{"program": "x"} extra`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("trailing garbage: status %d, want 400", resp.StatusCode)
	}

	// GET on a POST route is a 405 from the method-aware mux.
	getResp, err := http.Get(ts.URL + "/compile")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	io.Copy(io.Discard, getResp.Body)
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /compile: status %d, want 405", getResp.StatusCode)
	}
}

func TestHTTPBodyTooLarge(t *testing.T) {
	_, ts := newTestHTTP(t, func(c *Config) { c.MaxProgramBytes = 128 })
	big := strings.Repeat("a", 64*1024+256)
	resp := postJSON(t, ts.URL+"/compile", CompileRequest{Program: big})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	// A complete object followed by more bytes than the bound is a 413
	// too: the body is read whole before it is decoded.
	padded := `{"program": "x"}` + strings.Repeat(" ", 64*1024+256)
	resp, err := http.Post(ts.URL+"/compile", "application/json", strings.NewReader(padded))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("padded body: status %d, want 413", resp.StatusCode)
	}
}

// TestHTTPBodyReadDeadline: a client that declares a 2,000,000-byte body
// and sends 12 bytes of it is answered 408 once the body's deadline
// passes, where it used to hold its handler for as long as it kept the
// connection open. A compile held past the deadline after its body has
// arrived still answers 200: the deadline ends with the body, so the
// read net/http goes on with after the body cannot fail at it and cancel
// the request.
func TestHTTPBodyReadDeadline(t *testing.T) {
	const bound = 300 * time.Millisecond
	svc, ts := newTestHTTP(t, nil)
	svc.bodyTimeout = bound

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	const part = `{"program":"`
	if _, err := io.WriteString(conn, "POST /compile HTTP/1.1\r\nHost: ccmd\r\nContent-Type: application/json\r\n"+
		"Content-Length: 2000000\r\n\r\n"+part); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(start.Add(bound + 5*time.Second)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("after %s: no response to a stalled body: %v", time.Since(start), err)
	}
	env := decodeBody[errEnvelope](t, resp)
	if elapsed := time.Since(start); resp.StatusCode != http.StatusRequestTimeout || elapsed > bound+2*time.Second {
		t.Fatalf("a stalled body was answered %d after %s, want 408 after about %s", resp.StatusCode, elapsed, bound)
	}
	if env.Error == nil || env.Error.Code != CodeBadRequest {
		t.Fatalf("error %+v, want %s", env.Error, CodeBadRequest)
	}

	svc.testCompileHook = func() { time.Sleep(3 * bound) }
	resp = postJSON(t, ts.URL+"/compile", CompileRequest{Program: testProgram(t, 12)})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("a compile held past the body deadline: status %d, want 200", resp.StatusCode)
	}
}

// TestHTTPEscapedProgramUnderLimit: a program under MaxProgramBytes
// whose JSON escapes (two bytes per tab and newline) carry its body past
// the program bound reaches the parser, whose error names the last line.
func TestHTTPEscapedProgramUnderLimit(t *testing.T) {
	_, ts := newTestHTTP(t, nil)
	const nops = 200_000
	src := "func main() {\nentry:\n" + strings.Repeat("\tnop\n", nops) + "\tbogus\n}\n"
	if len(src) > DefaultMaxProgramBytes {
		t.Fatalf("program is %d bytes, over the %d limit", len(src), DefaultMaxProgramBytes)
	}
	for _, path := range []string{"/compile", "/run"} {
		var body any = CompileRequest{Program: src}
		if path == "/run" {
			body = RunRequest{Program: src}
		}
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		if len(buf) <= DefaultMaxProgramBytes+64*1024 {
			t.Fatalf("%s body is %d bytes: it must exceed the program bound plus 64 KiB", path, len(buf))
		}
		resp := postJSON(t, ts.URL+path, body)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("%s: status %d, want 422", path, resp.StatusCode)
		}
		env := decodeBody[errEnvelope](t, resp)
		want := fmt.Sprintf("parse line %d: unknown opcode \"bogus\"", nops+3)
		if env.Error == nil || env.Error.Code != CodeBadProgram || !strings.Contains(env.Error.Message, want) {
			t.Fatalf("%s: error %+v, want %s with %q", path, env.Error, CodeBadProgram, want)
		}
	}
}

func TestHTTPRun(t *testing.T) {
	_, ts := newTestHTTP(t, nil)
	resp := postJSON(t, ts.URL+"/run", RunRequest{Program: testProgram(t, 12), CCMBytes: 256})
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	out := decodeBody[RunResponse](t, resp)
	if out.Instrs == 0 || out.Cycles == 0 {
		t.Fatalf("empty run stats: %+v", out)
	}
}

// TestHTTPHugeGlobal: a short body declaring a global past the
// simulator's address space is refused before anything that size is
// allocated — by /run as a run fault, by an oracle-checked /compile as a
// bad program — and the service goes on serving.
func TestHTTPHugeGlobal(t *testing.T) {
	_, ts := newTestHTTP(t, nil)
	for _, words := range []string{"16777216", "1000000000", "9223372036854775807"} {
		src := "global G " + words + "\nfunc main() {\nentry:\n\tret\n}\n"
		for _, tc := range []struct {
			path, code string
			body       any
		}{
			{"/run", CodeRunFault, RunRequest{Program: src}},
			{"/compile", CodeBadProgram, CompileRequest{Program: src, Config: RequestConfig{DiffCheck: "final"}}},
		} {
			resp := postJSON(t, ts.URL+tc.path, tc.body)
			if resp.StatusCode != http.StatusUnprocessableEntity {
				t.Fatalf("%s global G %s: status %d, want 422", tc.path, words, resp.StatusCode)
			}
			env := decodeBody[errEnvelope](t, resp)
			if env.Error == nil || env.Error.Code != tc.code || !strings.Contains(env.Error.Message, "address space") {
				t.Fatalf("%s global G %s: error %+v, want %s naming the address space", tc.path, words, env.Error, tc.code)
			}
		}
	}
	resp := postJSON(t, ts.URL+"/run", RunRequest{Program: testProgram(t, 12)})
	if resp.StatusCode != 200 {
		t.Fatalf("run after the refusals: status %d", resp.StatusCode)
	}
	if out := decodeBody[RunResponse](t, resp); out.Instrs == 0 {
		t.Fatalf("run after the refusals: empty stats %+v", out)
	}
}

// TestHTTPHugeCCM: a CCM size the simulator cannot have is refused
// before a CCM that size is allocated — by /run as a run fault, by
// /compile as a 400 on config.ccm_bytes with or without the oracle, as is
// an unaligned size — and the service goes on serving.
func TestHTTPHugeCCM(t *testing.T) {
	_, ts := newTestHTTP(t, nil)
	text := testProgram(t, 3)
	resp := postJSON(t, ts.URL+"/run", RunRequest{Program: text, CCMBytes: 1 << 62})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("/run ccm_bytes 1<<62: status %d, want 422", resp.StatusCode)
	}
	if env := decodeBody[errEnvelope](t, resp); env.Error == nil || env.Error.Code != CodeRunFault ||
		!strings.Contains(env.Error.Message, "address space") {
		t.Fatalf("/run ccm_bytes 1<<62: error %+v, want %s naming the address space", env.Error, CodeRunFault)
	}
	for _, ccm := range []int64{12, 1 << 62} {
		for _, diff := range []string{"", "final"} {
			resp := postJSON(t, ts.URL+"/compile", CompileRequest{Program: text,
				Config: RequestConfig{Strategy: "postpass", CCMBytes: ccm, DiffCheck: diff}})
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("/compile ccm_bytes %d diff %q: status %d, want 400", ccm, diff, resp.StatusCode)
			}
			if env := decodeBody[errEnvelope](t, resp); env.Error == nil || env.Error.Code != CodeBadRequest ||
				env.Error.Field != "config.ccm_bytes" {
				t.Fatalf("/compile ccm_bytes %d diff %q: error %+v, want %s on config.ccm_bytes", ccm, diff, env.Error, CodeBadRequest)
			}
		}
	}
	resp = postJSON(t, ts.URL+"/run", RunRequest{Program: text, CCMBytes: 512})
	if resp.StatusCode != 200 {
		t.Fatalf("run after the refusals: status %d", resp.StatusCode)
	}
	if out := decodeBody[RunResponse](t, resp); out.Instrs == 0 {
		t.Fatalf("run after the refusals: empty stats %+v", out)
	}
}

// TestHTTPHugeRegister: a short body naming a register past ir.MaxRegs is
// a bad program on /compile and /run, refused before a register table
// that size is allocated, and the service goes on serving.
func TestHTTPHugeRegister(t *testing.T) {
	_, ts := newTestHTTP(t, nil)
	for _, reg := range []string{"r65536", "r10000000", "f2000000000", "r9223372036854775807"} {
		src := "func main() {\nentry:\n\t" + reg + " = loadi 1\n\tret\n}\n"
		for _, tc := range []struct {
			path string
			body any
		}{
			{"/compile", CompileRequest{Program: src}},
			{"/run", RunRequest{Program: src}},
		} {
			path := tc.path
			resp := postJSON(t, ts.URL+path, tc.body)
			if resp.StatusCode != http.StatusUnprocessableEntity {
				t.Fatalf("%s %s: status %d, want 422", path, reg, resp.StatusCode)
			}
			env := decodeBody[errEnvelope](t, resp)
			if env.Error == nil || env.Error.Code != CodeBadProgram || !strings.Contains(env.Error.Message, "bad register") {
				t.Fatalf("%s %s: error %+v, want %s naming the bad register", path, reg, env.Error, CodeBadProgram)
			}
		}
	}
	resp := postJSON(t, ts.URL+"/compile", CompileRequest{Program: testProgram(t, 12)})
	if resp.StatusCode != 200 {
		t.Fatalf("compile after the refusals: status %d", resp.StatusCode)
	}
	if out := decodeBody[CompileResponse](t, resp); out.Output == "" {
		t.Fatalf("compile after the refusals: empty output")
	}
}

// TestHTTPRunBounds: /run holds a run to the simulator's bound on the
// register words of live frames, and clamps max_depth to its default
// depth. A short text whose recursive function names r65535 is a 422 run
// fault at the register bound, whatever depth it asks for, and a
// recursion that holds no registers stops at depth sim.DefaultMaxDepth.
func TestHTTPRunBounds(t *testing.T) {
	_, ts := newTestHTTP(t, nil)
	const recurse = "func f() {\nentry:\n\t%scall f()\n\tret\n}\nfunc main() {\nentry:\n\tcall f()\n\tret\n}\n"
	for _, tc := range []struct {
		program  string
		maxDepth int
		want     string
	}{
		{fmt.Sprintf(recurse, "r65535 = loadi 1\n\t"), 0, "register words"},
		{fmt.Sprintf(recurse, "r65535 = loadi 1\n\t"), math.MaxInt, "register words"},
		{fmt.Sprintf(recurse, ""), math.MaxInt, fmt.Sprintf("call depth limit %d exceeded", sim.DefaultMaxDepth)},
	} {
		resp := postJSON(t, ts.URL+"/run", RunRequest{Program: tc.program, MaxDepth: tc.maxDepth})
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("max_depth %d: status %d, want 422", tc.maxDepth, resp.StatusCode)
		}
		if env := decodeBody[errEnvelope](t, resp); env.Error == nil || env.Error.Code != CodeRunFault ||
			!strings.Contains(env.Error.Message, tc.want) {
			t.Fatalf("max_depth %d: error %+v, want %s naming %q", tc.maxDepth, env.Error, CodeRunFault, tc.want)
		}
	}
}

func TestHTTPHealthAndVersion(t *testing.T) {
	svc, ts := newTestHTTP(t, nil)
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		if h := decodeBody[HealthResponse](t, resp); h.Status != "ok" {
			t.Fatalf("GET %s: status %q", path, h.Status)
		}
	}
	resp, err := http.Get(ts.URL + "/version")
	if err != nil {
		t.Fatalf("GET /version: %v", err)
	}
	if v := decodeBody[VersionResponse](t, resp); v.Version != "test-version" {
		t.Fatalf("version %q", v.Version)
	}

	// Draining flips readiness to 503 but leaves liveness at 200.
	svc.BeginDrain()
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatalf("GET /readyz: %v", err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining /readyz: status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatalf("draining /readyz has no Retry-After")
	}
	if h := decodeBody[HealthResponse](t, resp); h.Status != "draining" {
		t.Fatalf("draining /readyz body: %q", h.Status)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("draining /healthz: status %d, want 200", resp.StatusCode)
	}
}

func TestHTTPMetricsAndTrace(t *testing.T) {
	_, ts := newTestHTTP(t, nil)
	resp := postJSON(t, ts.URL+"/compile", CompileRequest{
		Program: testProgram(t, 13),
		Options: RequestOptions{Trace: true},
	})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("compile: status %d", resp.StatusCode)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	m := decodeBody[MetricsResponse](t, mresp)
	if m.Service.Requests != 1 || m.Service.TraceRequests != 1 {
		t.Fatalf("service stats: %+v", m.Service)
	}
	if m.Driver == nil || len(m.Registry) == 0 {
		t.Fatalf("metrics response missing driver report or registry snapshot")
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(m.Registry, &snap); err != nil {
		t.Fatalf("registry snapshot: %v", err)
	}
	if snap.Counters["ccmd.requests"] != 1 {
		t.Fatalf("ccmd.requests = %d in snapshot", snap.Counters["ccmd.requests"])
	}

	tresp, err := http.Get(ts.URL + "/trace")
	if err != nil {
		t.Fatalf("GET /trace: %v", err)
	}
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	body, _ := io.ReadAll(tresp.Body)
	tresp.Body.Close()
	if err := json.Unmarshal(body, &trace); err != nil {
		t.Fatalf("GET /trace is not Chrome trace JSON: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatalf("GET /trace has no events after a traced compile")
	}

	rresp, err := http.Get(ts.URL + "/report")
	if err != nil {
		t.Fatalf("GET /report: %v", err)
	}
	var rep map[string]any
	if err := json.NewDecoder(rresp.Body).Decode(&rep); err != nil {
		t.Fatalf("GET /report: %v", err)
	}
	rresp.Body.Close()
	if rep["funcs"] == nil {
		t.Fatalf("GET /report missing funcs: %v", rep)
	}
}

// TestHTTPSaturation proves the 429 + Retry-After contract end to end:
// with one slot and a one-deep queue held busy, the next request over
// the wire bounces with the typed saturation error.
func TestHTTPSaturation(t *testing.T) {
	svc, ts := newTestHTTP(t, func(c *Config) {
		c.MaxInflight = 1
		c.MaxQueue = 1
		c.RetryAfter = 3 * time.Second
	})
	hold := make(chan struct{})
	entered := make(chan struct{}, 8)
	svc.testCompileHook = func() {
		entered <- struct{}{}
		<-hold
	}
	text := testProgram(t, 14)
	var wg sync.WaitGroup
	wg.Add(2)
	for i := 0; i < 2; i++ {
		go func() {
			defer wg.Done()
			resp := postJSON(t, ts.URL+"/compile", CompileRequest{Program: text})
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != 200 {
				t.Errorf("held request: status %d", resp.StatusCode)
			}
		}()
	}
	<-entered // one inflight
	waitFor(t, func() bool { return svc.Stats().Queued == 1 })

	resp := postJSON(t, ts.URL+"/compile", CompileRequest{Program: text})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Fatalf("Retry-After = %q, want \"3\"", got)
	}
	if e := decodeBody[errEnvelope](t, resp); e.Error == nil || e.Error.Code != CodeSaturated {
		t.Fatalf("saturation error: %+v", e.Error)
	}

	close(hold)
	wg.Wait()
}

// TestServerDrain exercises the Server wrapper: serve on an ephemeral
// port, then Shutdown drains in-flight work before returning.
func TestServerDrain(t *testing.T) {
	svc := newTestService(t, nil)
	var logBuf bytes.Buffer
	var logMu sync.Mutex
	srv, err := NewServer(svc, ServerConfig{
		Addr:         "127.0.0.1:0",
		Version:      "test",
		DrainTimeout: 10 * time.Second,
		Logf: func(format string, args ...any) {
			logMu.Lock()
			fmt.Fprintf(&logBuf, format+"\n", args...)
			logMu.Unlock()
		},
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve() }()

	url := "http://" + srv.Addr()
	hold := make(chan struct{})
	entered := make(chan struct{}, 1)
	svc.testCompileHook = func() {
		entered <- struct{}{}
		<-hold
	}
	compiled := make(chan int, 1)
	go func() {
		resp := postJSON(t, url+"/compile", CompileRequest{Program: testProgram(t, 15)})
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		compiled <- resp.StatusCode
	}()
	<-entered

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- srv.Shutdown(context.Background()) }()
	waitFor(t, func() bool { return svc.Draining() })

	// The in-flight request survives the drain window and completes.
	close(hold)
	if code := <-compiled; code != 200 {
		t.Fatalf("in-flight request during drain: status %d", code)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve returned %v after graceful shutdown", err)
	}
	logMu.Lock()
	logs := logBuf.String()
	logMu.Unlock()
	if !strings.Contains(logs, "listening on") || !strings.Contains(logs, "drained cleanly") {
		t.Fatalf("server log missing lifecycle lines:\n%s", logs)
	}
}

// TestHTTPRemoteCircuitDegradedNotDead pins the operational contract
// for the remote cache tier: when its circuit breaker opens, the
// service reports "degraded" on /healthz and /readyz and exposes the
// breaker state in /metrics — but readiness stays 200. An open circuit
// means the shared cache is being skipped, not that this daemon cannot
// compile; failing readiness would drain capacity exactly when the
// shared cache is already down.
func TestHTTPRemoteCircuitDegradedNotDead(t *testing.T) {
	// A just-closed listener: connections are refused deterministically.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := "http://" + ln.Addr().String()
	ln.Close()

	svc, ts := newTestHTTP(t, func(c *Config) {
		c.Driver = pipeline.New(pipeline.Options{
			Workers:    2,
			Metrics:    obs.NewRegistry(),
			RemoteURLs: []string{dead},
			RemoteTuning: remotecache.Tuning{
				RequestTimeout: 100 * time.Millisecond,
				Retries:        -1,
				TripAfter:      1, // first refused connection opens the circuit
				HalfOpenAfter:  time.Hour,
				Sleep:          func(time.Duration) {},
			},
		})
	})
	if err := svc.Driver().RemoteCacheErr(); err != nil {
		t.Fatalf("remote tier failed to attach: %v", err)
	}

	// One compile drives lookups into the dead tier and trips the breaker.
	resp := postJSON(t, ts.URL+"/compile", CompileRequest{Program: testProgram(t, 16)})
	if resp.StatusCode != 200 {
		t.Fatalf("compile with dead remote: status %d, want 200", resp.StatusCode)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if state := svc.Driver().RemoteCircuit(); state != "open" {
		t.Fatalf("circuit %q after compile against dead server, want open", state)
	}

	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d, want 200 (degraded, not dead)", path, resp.StatusCode)
		}
		h := decodeBody[HealthResponse](t, resp)
		if h.Status != "degraded" || !strings.Contains(h.Detail, "circuit open") {
			t.Fatalf("GET %s: %+v, want degraded/circuit open", path, h)
		}
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	m := decodeBody[MetricsResponse](t, mresp)
	if m.Service.RemoteCircuit != "open" {
		t.Fatalf("service.remote_circuit = %q, want open", m.Service.RemoteCircuit)
	}
	if m.Driver == nil || m.Driver.Cache.Remote.Circuit != "open" {
		t.Fatalf("driver report does not carry the open circuit")
	}
}
