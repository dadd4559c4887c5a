package ccmd

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestRateLimitHotTenant pins the tenant-scoped 429 against an
// injectable clock: a tenant that burns its burst is throttled with
// rate-limited (not saturated) and an exact Retry-After, while a cold
// tenant on the same service is admitted with byte-identical output,
// and the hot tenant recovers once its bucket refills.
func TestRateLimitHotTenant(t *testing.T) {
	now := time.Unix(1_000, 0)
	svc := newTestService(t, func(c *Config) {
		c.TenantRate = 1
		c.TenantBurst = 2
		c.RateNow = func() time.Time { return now }
	})
	text := testProgram(t, 20)
	compile := func(tenant string) (*CompileResponse, *APIError) {
		return svc.Compile(context.Background(), &CompileRequest{
			Tenant:  tenant,
			Program: text,
			Config:  RequestConfig{Strategy: "postpass", CCMBytes: 512},
		})
	}

	first, apiErr := compile("hot")
	if apiErr != nil {
		t.Fatalf("hot #1: %v", apiErr)
	}
	if _, apiErr = compile("hot"); apiErr != nil {
		t.Fatalf("hot #2 (burst): %v", apiErr)
	}
	_, apiErr = compile("hot")
	if apiErr == nil {
		t.Fatalf("hot tenant admitted past its burst")
	}
	if apiErr.Status != http.StatusTooManyRequests || apiErr.Code != CodeRateLimited || apiErr.Field != "tenant" {
		t.Fatalf("got status=%d code=%q field=%q, want 429 %q tenant", apiErr.Status, apiErr.Code, apiErr.Field, CodeRateLimited)
	}
	// Empty bucket at rate 1/s: the next token is exactly 1s away.
	if apiErr.RetryAfter != 1 {
		t.Fatalf("RetryAfter = %d, want 1", apiErr.RetryAfter)
	}

	// A throttled neighbor costs the cold tenant nothing — not even a
	// byte of output difference.
	cold, apiErr := compile("cold")
	if apiErr != nil {
		t.Fatalf("cold tenant throttled by the hot one: %v", apiErr)
	}
	if cold.Output != first.Output {
		t.Fatalf("cold tenant got different bytes than the hot tenant")
	}

	// The bucket refills with the clock, not with wall time.
	now = now.Add(2 * time.Second)
	again, apiErr := compile("hot")
	if apiErr != nil {
		t.Fatalf("hot tenant still throttled after refill: %v", apiErr)
	}
	if again.Output != first.Output {
		t.Fatalf("throttling changed output bytes")
	}

	st := svc.Stats()
	if st.RateLimited != 1 {
		t.Fatalf("RateLimited = %d, want 1", st.RateLimited)
	}
	hot, ok := st.Tenants["hot"]
	if !ok || hot.Limited != 1 || hot.Requests != 4 {
		t.Fatalf("Tenants[hot] = %+v (ok=%v), want requests=4 limited=1", hot, ok)
	}
	if cold, ok := st.Tenants["cold"]; !ok || cold.Limited != 0 {
		t.Fatalf("Tenants[cold] = %+v (ok=%v), want limited=0", cold, ok)
	}
	if snap := svc.Metrics(); snap.Counters["ccmd.rate_limited"] != 1 {
		t.Fatalf("ccmd.rate_limited = %d in registry, want 1", snap.Counters["ccmd.rate_limited"])
	}
}

// TestFairShareQueueCap: with the only slot held, one tenant may hold
// at most MaxTenantQueue queue positions — its next request is a
// tenant-scoped 429 while another tenant still queues freely.
func TestFairShareQueueCap(t *testing.T) {
	svc := newTestService(t, func(c *Config) {
		c.MaxInflight = 1
		c.MaxQueue = 4
		c.MaxTenantQueue = 1
	})
	hold := make(chan struct{})
	entered := make(chan struct{}, 8)
	svc.testCompileHook = func() {
		entered <- struct{}{}
		<-hold
	}
	text := testProgram(t, 21)
	results := make(chan *APIError, 3)
	compileAsync := func(tenant string) {
		go func() {
			_, apiErr := svc.Compile(context.Background(), &CompileRequest{Tenant: tenant, Program: text})
			results <- apiErr
		}()
	}

	compileAsync("hog") // takes the slot
	<-entered
	compileAsync("hog") // takes the hog's one queue position
	waitFor(t, func() bool { return svc.Stats().Queued == 1 })

	// The hog's third request must bounce as rate-limited — its share of
	// the queue is spent — long before service-wide saturation (queue 4).
	_, apiErr := svc.Compile(context.Background(), &CompileRequest{Tenant: "hog", Program: text})
	if apiErr == nil {
		t.Fatalf("hog request admitted past its fair share")
	}
	if apiErr.Status != http.StatusTooManyRequests || apiErr.Code != CodeRateLimited || apiErr.Field != "tenant" {
		t.Fatalf("got status=%d code=%q field=%q, want 429 %q tenant", apiErr.Status, apiErr.Code, apiErr.Field, CodeRateLimited)
	}
	if apiErr.RetryAfter <= 0 {
		t.Fatalf("fair-share rejection carries no Retry-After")
	}

	// Another tenant is untouched by the hog's spent share.
	compileAsync("quiet")
	waitFor(t, func() bool { return svc.Stats().Queued == 2 })

	close(hold)
	for i := 0; i < 3; i++ {
		if err := <-results; err != nil {
			t.Fatalf("queued request failed: %v", err)
		}
	}
	if n := svc.Stats().FairShareRejected; n != 1 {
		t.Fatalf("FairShareRejected = %d, want 1", n)
	}
}

// TestHTTPAuth pins the bearer-token gate: every data endpoint answers
// 401 in the structured-error envelope without the right token, health
// probes stay open, and the right token restores service.
func TestHTTPAuth(t *testing.T) {
	svc := newTestService(t, nil)
	ts := httptest.NewServer(Handler(svc, "test-version", "sekrit"))
	t.Cleanup(ts.Close)
	text := testProgram(t, 22)

	do := func(method, path, token string) *http.Response {
		t.Helper()
		var body io.Reader
		if method == http.MethodPost {
			body = strings.NewReader(fmt.Sprintf(`{"program": %q}`, text))
		}
		req, err := http.NewRequest(method, ts.URL+path, body)
		if err != nil {
			t.Fatal(err)
		}
		if method == http.MethodPost {
			req.Header.Set("Content-Type", "application/json")
		}
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		return resp
	}

	protected := []struct{ method, path string }{
		{http.MethodPost, "/compile"},
		{http.MethodPost, "/run"},
		{http.MethodGet, "/report"},
		{http.MethodGet, "/metrics"},
		{http.MethodGet, "/trace"},
	}
	for _, ep := range protected {
		for _, token := range []string{"", "wrong"} {
			resp := do(ep.method, ep.path, token)
			if resp.StatusCode != http.StatusUnauthorized {
				t.Fatalf("%s %s token=%q: status %d, want 401", ep.method, ep.path, token, resp.StatusCode)
			}
			if ch := resp.Header.Get("WWW-Authenticate"); !strings.Contains(ch, "Bearer") {
				t.Fatalf("%s %s: WWW-Authenticate = %q", ep.method, ep.path, ch)
			}
			if e := decodeBody[errEnvelope](t, resp); e.Error == nil || e.Error.Code != CodeUnauthorized {
				t.Fatalf("%s %s: error envelope %+v, want %q", ep.method, ep.path, e.Error, CodeUnauthorized)
			}
		}
	}
	// Health probes need no secret: load balancers don't carry tokens.
	for _, path := range []string{"/healthz", "/readyz", "/version"} {
		resp := do(http.MethodGet, path, "")
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s without token: status %d, want 200", path, resp.StatusCode)
		}
	}
	// The right token restores every endpoint.
	resp := do(http.MethodPost, "/compile", "sekrit")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("authorized POST /compile: status %d, want 200", resp.StatusCode)
	}
	if n := svc.Stats().Unauthorized; n != int64(len(protected)*2) {
		t.Fatalf("Unauthorized = %d, want %d", n, len(protected)*2)
	}
}

// TestHTTPTenantPathTraversal is the live-handler regression for the
// path-traversal tenant: "../evil" on /compile and /run must be a 400
// bad-request naming the tenant field, never a served request (and
// never a directory component).
func TestHTTPTenantPathTraversal(t *testing.T) {
	_, ts := newTestHTTP(t, nil)
	text := testProgram(t, 23)
	cases := []struct {
		path string
		body any
	}{
		{"/compile", CompileRequest{Tenant: "../evil", Program: text}},
		{"/run", RunRequest{Tenant: "../evil", Program: text}},
	}
	for _, tc := range cases {
		resp := postJSON(t, ts.URL+tc.path, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %s tenant=../evil: status %d, want 400", tc.path, resp.StatusCode)
		}
		e := decodeBody[errEnvelope](t, resp)
		if e.Error == nil || e.Error.Code != CodeBadRequest || e.Error.Field != "tenant" {
			t.Fatalf("POST %s: error %+v, want %q field tenant", tc.path, e.Error, CodeBadRequest)
		}
	}
}

// TestBackpressureRetryAfterAudit walks every 429/503 emission path in
// the service — tenant rate limit, fair-share queue cap, service-wide
// saturation, drain — and pins the shared contract: each carries a
// positive Retry-After and renders as the one structured-error
// envelope with the matching header.
func TestBackpressureRetryAfterAudit(t *testing.T) {
	ctx := context.Background()

	rateLimited := func() *APIError {
		now := time.Unix(5_000, 0)
		svc := newTestService(t, func(c *Config) {
			c.TenantRate = 1
			c.TenantBurst = 1
			c.RateNow = func() time.Time { return now }
		})
		if apiErr := svc.rateLimit("hot"); apiErr != nil {
			t.Fatalf("first spend throttled: %v", apiErr)
		}
		return svc.rateLimit("hot")
	}
	fairShare := func() *APIError {
		svc := newTestService(t, func(c *Config) {
			c.MaxInflight = 1
			c.MaxQueue = 4
			c.MaxTenantQueue = 1
		})
		svc.slots <- struct{}{} // the one slot is busy
		svc.tenantQueued["hog"] = 1
		_, _, apiErr := svc.admit(ctx, "hog")
		return apiErr
	}
	saturated := func() *APIError {
		svc := newTestService(t, func(c *Config) {
			c.MaxInflight = 1
			c.MaxQueue = 1
			c.MaxTenantQueue = -1
		})
		svc.slots <- struct{}{}
		svc.queued.Store(1) // queue already full
		_, _, apiErr := svc.admit(ctx, "t")
		return apiErr
	}
	draining := func() *APIError {
		svc := newTestService(t, nil)
		svc.BeginDrain()
		_, _, apiErr := svc.admit(ctx, "t")
		return apiErr
	}

	cases := []struct {
		name   string
		err    *APIError
		status int
		code   string
	}{
		{"rate-limited", rateLimited(), http.StatusTooManyRequests, CodeRateLimited},
		{"fair-share", fairShare(), http.StatusTooManyRequests, CodeRateLimited},
		{"saturated", saturated(), http.StatusTooManyRequests, CodeSaturated},
		{"draining", draining(), http.StatusServiceUnavailable, CodeDraining},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.err == nil {
				t.Fatalf("path produced no error")
			}
			if tc.err.Status != tc.status || tc.err.Code != tc.code {
				t.Fatalf("got status=%d code=%q, want %d %q", tc.err.Status, tc.err.Code, tc.status, tc.code)
			}
			if tc.err.RetryAfter <= 0 {
				t.Fatalf("%s carries no Retry-After: %+v", tc.name, tc.err)
			}
			// Render through the one error writer: header and envelope
			// must agree with the typed error.
			rec := httptest.NewRecorder()
			writeError(rec, tc.err)
			if rec.Code != tc.status {
				t.Fatalf("wire status %d, want %d", rec.Code, tc.status)
			}
			if got := rec.Header().Get("Retry-After"); got != strconv.Itoa(tc.err.RetryAfter) {
				t.Fatalf("Retry-After header = %q, want %d", got, tc.err.RetryAfter)
			}
			e := decodeBody[errEnvelope](t, rec.Result())
			if e.Error == nil || e.Error.Code != tc.code || e.Error.RetryAfter != tc.err.RetryAfter {
				t.Fatalf("envelope %+v does not match typed error %+v", e.Error, tc.err)
			}
		})
	}
}
