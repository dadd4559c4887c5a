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
// path-traversal tenant: "../evil" on /compile must be a 400
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
// the service — service-wide saturation and drain — and pins the shared
// contract: each carries a positive Retry-After and renders as the one
// structured-error envelope with the matching header. A sub-second
// -retry-after rounds up to one second rather than vanishing.
func TestBackpressureRetryAfterAudit(t *testing.T) {
	ctx := context.Background()

	saturated := func(retryAfter time.Duration) *APIError {
		svc := newTestService(t, func(c *Config) {
			c.MaxInflight = 1
			c.MaxQueue = 1
			c.RetryAfter = retryAfter
		})
		svc.slots <- struct{}{}
		svc.queued.Store(1) // queue already full
		_, apiErr := svc.admit(ctx)
		return apiErr
	}
	draining := func(retryAfter time.Duration) *APIError {
		svc := newTestService(t, func(c *Config) { c.RetryAfter = retryAfter })
		svc.BeginDrain()
		_, apiErr := svc.admit(ctx)
		return apiErr
	}

	cases := []struct {
		name   string
		err    *APIError
		status int
		code   string
	}{
		{"saturated", saturated(0), http.StatusTooManyRequests, CodeSaturated},
		{"draining", draining(0), http.StatusServiceUnavailable, CodeDraining},
		{"saturated-500ms", saturated(500 * time.Millisecond), http.StatusTooManyRequests, CodeSaturated},
		{"draining-500ms", draining(500 * time.Millisecond), http.StatusServiceUnavailable, CodeDraining},
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

	// /readyz while draining takes its header from the same hint.
	for _, tc := range []struct {
		retryAfter time.Duration
		want       string
	}{{0, "2"}, {500 * time.Millisecond, "1"}} {
		svc, ts := newTestHTTP(t, func(c *Config) { c.RetryAfter = tc.retryAfter })
		svc.BeginDrain()
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatalf("GET /readyz: %v", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != tc.want {
			t.Fatalf("retry-after=%v: draining /readyz status %d Retry-After %q, want 503 with %q",
				tc.retryAfter, resp.StatusCode, resp.Header.Get("Retry-After"), tc.want)
		}
	}
}
