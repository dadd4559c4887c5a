package remotecache

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"ccmem/internal/obs"
)

// TestServerAuthGate pins the bearer-token door: data endpoints answer
// 401 in the structured-error envelope without the right token, health
// probes stay open for tokenless load balancers.
func TestServerAuthGate(t *testing.T) {
	srv, err := NewServer(t.TempDir(), ServerOptions{AuthToken: "fleet-secret"})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	hs := httptest.NewServer(srv.Handler("test"))
	t.Cleanup(hs.Close)
	key := keyOf([]byte("gated"))
	entryPath := "/entry/" + hex.EncodeToString(key[:]) + "?kind=1"

	get := func(path, token string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, hs.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp
	}

	for _, path := range []string{entryPath, "/stats"} {
		for _, token := range []string{"", "wrong"} {
			resp := get(path, token)
			if resp.StatusCode != http.StatusUnauthorized {
				t.Fatalf("GET %s token=%q: status %d, want 401", path, token, resp.StatusCode)
			}
			if ch := resp.Header.Get("WWW-Authenticate"); !strings.Contains(ch, "Bearer") {
				t.Fatalf("GET %s: WWW-Authenticate = %q", path, ch)
			}
			var env struct {
				Error *apiError `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
				t.Fatalf("GET %s: decode 401 body: %v", path, err)
			}
			resp.Body.Close()
			if env.Error == nil || env.Error.Code != CodeUnauthorized {
				t.Fatalf("GET %s: envelope %+v, want code %q", path, env.Error, CodeUnauthorized)
			}
		}
	}
	for _, path := range []string{"/healthz", "/readyz", "/version"} {
		resp := get(path, "")
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s without token: status %d, want 200", path, resp.StatusCode)
		}
	}
	if n := srv.Stats().Unauthorized; n != 4 {
		t.Fatalf("Unauthorized = %d, want 4", n)
	}
	// The right token opens the door.
	resp := get("/stats", "fleet-secret")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("authorized GET /stats: status %d, want 200", resp.StatusCode)
	}
}

// TestClientSendsBearerToken: a token-carrying client round-trips
// against an authenticated server; a tokenless one is refused at the
// door (a miss, never wrong bytes).
func TestClientSendsBearerToken(t *testing.T) {
	srv, err := NewServer(t.TempDir(), ServerOptions{AuthToken: "fleet-secret"})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	hs := httptest.NewServer(srv.Handler("test"))
	t.Cleanup(hs.Close)
	payload := []byte("authenticated artifact")
	key := keyOf(payload)

	writer, err := NewClient(Options{BaseURL: hs.URL, AuthToken: "fleet-secret", Tuning: fastTuning()})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	t.Cleanup(func() { writer.Close() })
	writer.Put(key, 3, payload)
	flush(t, writer)
	if got, ok := writer.Get(key, 3); !ok || !bytes.Equal(got, payload) {
		t.Fatalf("authenticated round trip failed (ok=%v)", ok)
	}

	// No token: the server refuses, the client records a miss.
	stranger, err := NewClient(Options{BaseURL: hs.URL, Tuning: fastTuning()})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	t.Cleanup(func() { stranger.Close() })
	if _, ok := stranger.Get(key, 3); ok {
		t.Fatalf("tokenless client read an authenticated entry")
	}
	if st := stranger.Stats(); st.HTTPErrors == 0 {
		t.Fatalf("401 not classified as an HTTP error: %+v", st)
	}
	if n := srv.Stats().Unauthorized; n == 0 {
		t.Fatalf("server counted no unauthorized requests")
	}
}

// TestBreakerTransitionCounters: the breaker's movements — trip,
// half-open probe, close — land as obs counter increments, so a
// metrics scrape shows when the tier degraded, not just where the
// circuit sits now.
func TestBreakerTransitionCounters(t *testing.T) {
	_, hs := newTestServer(t)
	rt := &FaultRT{}
	rt.Arm(FaultRefused)

	clock := time.Unix(1000, 0)
	tun := fastTuning()
	tun.TripAfter = 3
	tun.HalfOpenAfter = 2 * time.Second
	tun.Now = func() time.Time { return clock }
	reg := obs.NewRegistry()
	c := newTestClient(t, hs.URL, rt, tun, reg)
	key := keyOf([]byte("transitions"))

	counters := func() (trips, halfOpens, closes int64) {
		return reg.Counter("remotecache.breaker.trips").Value(),
			reg.Counter("remotecache.breaker.half_opens").Value(),
			reg.Counter("remotecache.breaker.closes").Value()
	}

	// Three consecutive failures: one trip, nothing else.
	for i := 0; i < 3; i++ {
		c.Get(key, 1)
	}
	if trips, halfOpens, closes := counters(); trips != 1 || halfOpens != 0 || closes != 0 {
		t.Fatalf("after trip: trips=%d half_opens=%d closes=%d, want 1 0 0", trips, halfOpens, closes)
	}

	// Cooldown passes; the probe runs and fails: half_opens 1, trips 2.
	clock = clock.Add(3 * time.Second)
	c.Get(key, 1)
	if trips, halfOpens, closes := counters(); trips != 2 || halfOpens != 1 || closes != 0 {
		t.Fatalf("after failed probe: trips=%d half_opens=%d closes=%d, want 2 1 0", trips, halfOpens, closes)
	}

	// Server recovers; the next probe succeeds and closes the circuit.
	rt.Disarm()
	clock = clock.Add(3 * time.Second)
	c.Get(key, 1)
	if trips, halfOpens, closes := counters(); trips != 2 || halfOpens != 2 || closes != 1 {
		t.Fatalf("after recovery: trips=%d half_opens=%d closes=%d, want 2 2 1", trips, halfOpens, closes)
	}
	if c.State() != StateClosed {
		t.Fatalf("state %v after recovery, want closed", c.State())
	}
}

// TestServerDrainRetryAfterAudit walks every 503 path on the cache
// daemon — drained GET, drained PUT, draining /readyz, plus a sanity
// check that a drained node still answers health probes — and pins the
// shared backpressure contract: a positive Retry-After header and, on
// data endpoints, the structured-error envelope with the draining code
// and the header mirrored into retry_after_seconds.
func TestServerDrainRetryAfterAudit(t *testing.T) {
	srv, hs := newTestServer(t)

	// Seed an entry while the daemon is up: draining must refuse even
	// reads that would have hit.
	payload := []byte("drained away")
	key := keyOf(payload)
	c := newTestClient(t, hs.URL, nil, fastTuning(), nil)
	c.Put(key, 1, payload)
	flush(t, c)

	srv.BeginDrain()
	srv.BeginDrain() // idempotent
	if !srv.Draining() {
		t.Fatalf("Draining() = false after BeginDrain")
	}

	entryPath := "/entry/" + hex.EncodeToString(key[:]) + "?kind=1"
	do := func(method, path string, body []byte) *http.Response {
		t.Helper()
		req, err := http.NewRequest(method, hs.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		return resp
	}

	cases := []struct {
		name     string
		method   string
		path     string
		body     []byte
		envelope bool // data endpoints carry the structured error
	}{
		{"drained-get", http.MethodGet, entryPath, nil, true},
		{"drained-put", http.MethodPut, entryPath, []byte("x"), true},
		{"draining-readyz", http.MethodGet, "/readyz", nil, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := do(tc.method, tc.path, tc.body)
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("status %d, want 503", resp.StatusCode)
			}
			ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
			if err != nil || ra <= 0 {
				t.Fatalf("Retry-After = %q, want a positive integer", resp.Header.Get("Retry-After"))
			}
			if !tc.envelope {
				var ready readyzResponse
				if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
					t.Fatalf("decode readyz: %v", err)
				}
				if ready.Status != "draining" {
					t.Fatalf("readyz status %q, want draining", ready.Status)
				}
				return
			}
			var env struct {
				Error *apiError `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
				t.Fatalf("decode envelope: %v", err)
			}
			if env.Error == nil || env.Error.Code != CodeDraining {
				t.Fatalf("envelope %+v, want code %q", env.Error, CodeDraining)
			}
			if env.Error.RetryAfter != ra {
				t.Fatalf("retry_after_seconds=%d disagrees with header %d", env.Error.RetryAfter, ra)
			}
		})
	}

	// Liveness stays up so orchestrators don't hard-kill a draining node.
	resp := do(http.MethodGet, "/healthz", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz while draining: status %d, want 200", resp.StatusCode)
	}

	// And the client sees a draining server as a failure, never as
	// wrong bytes.
	if _, ok := c.Get(key, 1); ok {
		t.Fatalf("client read a hit from a draining node")
	}
}
