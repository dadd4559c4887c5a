package remotecache

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ccmem/internal/diskcache"
	"ccmem/internal/obs"
)

func keyOf(payload []byte) diskcache.Key { return sha256.Sum256(payload) }

// newTestServer spins up a Server over a temp store plus an httptest
// front end, torn down with the test.
func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := NewServer(t.TempDir(), ServerOptions{})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	hs := httptest.NewServer(srv.Handler("test"))
	t.Cleanup(hs.Close)
	return srv, hs
}

// fastTuning keeps test latencies tiny and removes real sleeping.
func fastTuning() Tuning {
	return Tuning{
		RequestTimeout: 250 * time.Millisecond,
		Retries:        -1, // none: each operation is one attempt
		Backoff:        time.Millisecond,
		TripAfter:      3,
		HalfOpenAfter:  time.Hour, // tests advance a fake clock instead
		Sleep:          func(time.Duration) {},
	}
}

func newTestClient(t *testing.T, url string, rt http.RoundTripper, tun Tuning, reg *obs.Registry) *Client {
	t.Helper()
	c, err := NewClient(Options{BaseURL: url, RoundTripper: rt, Obs: reg, Tuning: tun})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func flush(t *testing.T, c *Client) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.Flush(ctx); err != nil {
		t.Fatalf("Flush: %v", err)
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	srv, hs := newTestServer(t)
	payload := []byte("allocated ILOC artifact bytes")
	key := keyOf(payload)

	writer := newTestClient(t, hs.URL, nil, fastTuning(), nil)
	writer.Put(key, 7, payload)
	flush(t, writer)

	// A different client (cold caches) must read back identical bytes.
	reader := newTestClient(t, hs.URL, nil, fastTuning(), nil)
	got, ok := reader.Get(key, 7)
	if !ok {
		t.Fatalf("Get: miss after Put+Flush")
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("Get returned different bytes: %q vs %q", got, payload)
	}
	// Wrong kind under the same key is a distinct address.
	if _, ok := reader.Get(key, 8); ok {
		t.Fatalf("Get with wrong kind unexpectedly hit")
	}
	ws, rs := writer.Stats(), reader.Stats()
	if ws.Puts != 1 || ws.PutErrors != 0 || ws.PutDrops != 0 {
		t.Fatalf("writer put stats: %+v", ws)
	}
	if rs.Gets != 2 || rs.Hits != 1 || rs.Misses != 1 {
		t.Fatalf("reader stats: %+v", rs)
	}
	ss := srv.Stats()
	if ss.Puts != 1 || ss.Hits != 1 || ss.Misses != 1 || ss.Rejected != 0 {
		t.Fatalf("server stats: %+v", ss)
	}
}

func TestServerRejectsCorruptUpload(t *testing.T) {
	srv, hs := newTestServer(t)
	payload := []byte("to be mangled")
	key := keyOf(payload)
	entry := diskcache.EncodeEntry(1, key, payload)

	put := func(t *testing.T, url string, body []byte) (int, string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPut, url, bytes.NewReader(body))
		if err != nil {
			t.Fatalf("NewRequest: %v", err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("Do: %v", err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		var body2 struct {
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		if resp.StatusCode != http.StatusNoContent {
			if err := json.Unmarshal(raw, &body2); err != nil {
				t.Fatalf("error body is not the structured shape: %v (%q)", err, raw)
			}
			if body2.Error.Message == "" {
				t.Fatalf("structured error has no message: %q", raw)
			}
		}
		return resp.StatusCode, body2.Error.Code
	}

	addr := hs.URL + "/entry/" + hexKey(key) + "?kind=1"

	// Bit-flipped entry: checksum fails → 422 corrupt-entry.
	bad := append([]byte(nil), entry...)
	bad[len(bad)/2] ^= 1
	if st, code := put(t, addr, bad); st != http.StatusUnprocessableEntity || code != CodeCorruptEntry {
		t.Fatalf("bit-flipped upload: got %d/%s", st, code)
	}
	// Truncated entry → 422 corrupt-entry.
	if st, code := put(t, addr, entry[:len(entry)-5]); st != http.StatusUnprocessableEntity || code != CodeCorruptEntry {
		t.Fatalf("truncated upload: got %d/%s", st, code)
	}
	// Valid entry uploaded under a different address → 422 (an entry
	// that lies about its key must not be stored).
	otherKey := keyOf([]byte("other"))
	otherAddr := hs.URL + "/entry/" + hexKey(otherKey) + "?kind=1"
	if st, code := put(t, otherAddr, entry); st != http.StatusUnprocessableEntity || code != CodeCorruptEntry {
		t.Fatalf("mis-addressed upload: got %d/%s", st, code)
	}
	// Same bytes, wrong kind in the URL → 422.
	if st, code := put(t, hs.URL+"/entry/"+hexKey(key)+"?kind=2", entry); st != http.StatusUnprocessableEntity || code != CodeCorruptEntry {
		t.Fatalf("wrong-kind upload: got %d/%s", st, code)
	}
	// Malformed key → 400.
	if st, code := put(t, hs.URL+"/entry/zzzz?kind=1", entry); st != http.StatusBadRequest || code != CodeBadRequest {
		t.Fatalf("bad-key upload: got %d/%s", st, code)
	}

	if ss := srv.Stats(); ss.Rejected != 4 {
		t.Fatalf("server rejected = %d, want 4", ss.Rejected)
	}
	// None of the rejects stored anything.
	if _, ok := srv.Store().Get(key, 1); ok {
		t.Fatalf("corrupt upload reached the store")
	}

	// The real entry still goes through.
	if st, _ := put(t, addr, entry); st != http.StatusNoContent {
		t.Fatalf("valid upload: got %d", st)
	}
	if got, ok := srv.Store().Get(key, 1); !ok || !bytes.Equal(got, payload) {
		t.Fatalf("valid upload not readable from store")
	}
}

func TestClientVerifiesResponses(t *testing.T) {
	_, hs := newTestServer(t)
	payload := []byte("bytes the wire will mangle")
	key := keyOf(payload)

	rt := &FaultRT{}
	tun := fastTuning()
	c := newTestClient(t, hs.URL, rt, tun, nil)
	c.Put(key, 1, payload)
	flush(t, c)

	for _, kind := range []FaultKind{FaultTruncate, FaultBitFlip} {
		rt.Arm(kind)
		if _, ok := c.Get(key, 1); ok {
			t.Fatalf("%s: corrupt response served as a hit", kind)
		}
		rt.Disarm()
	}
	if st := c.Stats(); st.Corruptions < 2 {
		t.Fatalf("corruptions = %d, want >= 2", st.Corruptions)
	}
	// Clean wire: same entry verifies and hits.
	got, ok := c.Get(key, 1)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("clean Get after faults: ok=%v", ok)
	}
}

func TestClientResponseSizeCap(t *testing.T) {
	_, hs := newTestServer(t)
	payload := bytes.Repeat([]byte{0xAB}, 4096)
	key := keyOf(payload)

	c := newTestClient(t, hs.URL, nil, fastTuning(), nil)
	c.Put(key, 1, payload)
	flush(t, c)

	capped := fastTuning()
	capped.MaxResponseBytes = 512
	small := newTestClient(t, hs.URL, nil, capped, nil)
	if _, ok := small.Get(key, 1); ok {
		t.Fatalf("over-cap response served as a hit")
	}
	if st := small.Stats(); st.Corruptions != 1 || st.Misses != 1 {
		t.Fatalf("capped stats: %+v", st)
	}
}

func TestClientFaultClassification(t *testing.T) {
	_, hs := newTestServer(t)
	rt := &FaultRT{}
	tun := fastTuning()
	tun.TripAfter = 100 // keep the circuit closed for this test
	tun.RequestTimeout = 20 * time.Millisecond
	c := newTestClient(t, hs.URL, rt, tun, nil)
	key := keyOf([]byte("x"))

	cases := []struct {
		fault FaultKind
		count func(Stats) int64
	}{
		{FaultTimeout, func(s Stats) int64 { return s.Timeouts }},
		{FaultRefused, func(s Stats) int64 { return s.NetErrors }},
		{FaultSlow, func(s Stats) int64 { return s.Timeouts }},
		{Fault5xx, func(s Stats) int64 { return s.HTTPErrors }},
	}
	for _, tc := range cases {
		before := tc.count(c.Stats())
		rt.Arm(tc.fault)
		if _, ok := c.Get(key, 1); ok {
			t.Fatalf("%s: faulted Get unexpectedly hit", tc.fault)
		}
		if after := tc.count(c.Stats()); after <= before {
			t.Fatalf("%s: classification counter did not move (%d -> %d)", tc.fault, before, after)
		}
		rt.Disarm()
	}
	if got := c.Stats().Misses; got != int64(len(cases)) {
		t.Fatalf("misses = %d, want %d (every fault is a miss)", got, len(cases))
	}
}

func TestRetriesWithBackoff(t *testing.T) {
	_, hs := newTestServer(t)
	rt := &FaultRT{}
	rt.Arm(FaultRefused)
	var slept []time.Duration
	tun := fastTuning()
	tun.Retries = 3
	tun.Backoff = 10 * time.Millisecond
	tun.Sleep = func(d time.Duration) { slept = append(slept, d) }
	c := newTestClient(t, hs.URL, rt, tun, nil)

	if _, ok := c.Get(keyOf([]byte("y")), 1); ok {
		t.Fatalf("Get against refused transport hit")
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond}
	if len(slept) != len(want) {
		t.Fatalf("slept %v, want %v", slept, want)
	}
	for i := range want {
		if slept[i] != want[i] {
			t.Fatalf("backoff %d = %v, want %v (deterministic doubling)", i, slept[i], want[i])
		}
	}
	if st := c.Stats(); st.Retries != 3 || rt.Injected() != 4 {
		t.Fatalf("retries=%d injected=%d, want 3 and 4", st.Retries, rt.Injected())
	}
}

func TestCircuitBreakerTripsAndRecovers(t *testing.T) {
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
	key := keyOf([]byte("z"))

	gauge := func() int64 { return reg.Gauge("remotecache.circuit_state").Value() }

	// Three consecutive failures trip the breaker open.
	for i := 0; i < 3; i++ {
		if c.State() != StateClosed {
			t.Fatalf("breaker opened early at failure %d", i)
		}
		c.Get(key, 1)
	}
	if c.State() != StateOpen || gauge() != int64(StateOpen) {
		t.Fatalf("after %d failures: state=%v gauge=%d, want open", tun.TripAfter, c.State(), gauge())
	}
	// While open, lookups are instant misses: no network activity.
	before := rt.Injected()
	c.Get(key, 1)
	if rt.Injected() != before {
		t.Fatalf("open circuit still touched the network")
	}
	if st := c.Stats(); st.Skipped == 0 || st.Trips != 1 {
		t.Fatalf("open-circuit stats: %+v", st)
	}

	// Cooldown passes; the next lookup is the half-open probe. Still
	// faulted → back to open, trips++.
	clock = clock.Add(3 * time.Second)
	c.Get(key, 1)
	if st := c.Stats(); c.State() != StateOpen || st.Trips != 2 || st.Probes != 1 {
		t.Fatalf("failed probe: state=%v stats=%+v", c.State(), st)
	}

	// Server recovers; after another cooldown the probe succeeds (404 is
	// a healthy answer) and the circuit closes.
	rt.Disarm()
	clock = clock.Add(3 * time.Second)
	c.Get(key, 1)
	if c.State() != StateClosed || gauge() != int64(StateClosed) {
		t.Fatalf("after good probe: state=%v gauge=%d, want closed", c.State(), gauge())
	}
	if st := c.Stats(); st.Probes != 2 {
		t.Fatalf("probes = %d, want 2", st.Probes)
	}
	// Closed again: real traffic flows.
	c.Put(key, 1, []byte("z"))
	flush(t, c)
	if _, ok := c.Get(key, 1); !ok {
		t.Fatalf("recovered circuit does not serve hits")
	}
}

func TestPutQueueBoundedDrops(t *testing.T) {
	_, hs := newTestServer(t)
	rt := &FaultRT{}
	rt.Arm(FaultSlow) // put worker blocks until the request timeout
	tun := fastTuning()
	tun.RequestTimeout = 50 * time.Millisecond
	tun.PutQueue = 1
	c := newTestClient(t, hs.URL, rt, tun, nil)

	for i := 0; i < 8; i++ {
		p := []byte{byte(i)}
		c.Put(keyOf(p), 1, p)
	}
	// The queue holds 1 and the worker is stuck in one slow request, so
	// most of the burst must have been dropped, not buffered.
	if st := c.Stats(); st.PutDrops < 5 {
		t.Fatalf("put drops = %d, want >= 5 of 8", st.PutDrops)
	}
	rt.Disarm()
}

func TestPutAfterCloseIsDropped(t *testing.T) {
	_, hs := newTestServer(t)
	c, err := NewClient(Options{BaseURL: hs.URL, Tuning: fastTuning()})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	c.Put(keyOf([]byte("late")), 1, []byte("late")) // must not panic
	if st := c.Stats(); st.PutDrops != 1 {
		t.Fatalf("put after close: drops = %d, want 1", st.PutDrops)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestReportDecodeFailureReclassifies: a decode failure reported
// against a client's hit moves the lookup from hit to miss and counts
// one corruption.
func TestReportDecodeFailureReclassifies(t *testing.T) {
	_, hs := newTestServer(t)
	c := newTestClient(t, hs.URL, nil, fastTuning(), nil)
	payload := []byte("checksum-consistent but undecodable")
	key := keyOf(payload)
	c.Put(key, 1, payload)
	flush(t, c)
	if _, ok := c.Get(key, 1); !ok {
		t.Fatalf("warm Get missed")
	}
	c.ReportDecodeFailure()
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0+1 || st.Corruptions != 1 {
		t.Fatalf("after reclassification: %+v", st)
	}
}

// TestFleetDecodeFailureReclassifies: a decode failure is one process's
// verdict on the bytes it was served. Two clients of the fleet share a
// server; the one that reports the failure moves its lookup from hit to
// miss, counts one corruption and keeps Gets == Hits + Misses, while
// the other client's hit on the same entry stands.
func TestFleetDecodeFailureReclassifies(t *testing.T) {
	_, hs := newTestServer(t)
	a := newTestClient(t, hs.URL, nil, fastTuning(), nil)
	b := newTestClient(t, hs.URL, nil, fastTuning(), nil)
	payload := []byte("wire-valid, decode-invalid")
	key := keyOf(payload)
	a.Put(key, 1, payload)
	flush(t, a)

	if _, ok := a.Get(key, 1); !ok {
		t.Fatalf("warm read missed")
	}
	if _, ok := a.Get(keyOf([]byte("never stored")), 1); ok {
		t.Fatalf("read of an absent key hit")
	}
	a.ReportDecodeFailure()
	st := a.Stats()
	if st.Hits != 0 || st.Misses != 2 || st.Corruptions != 1 {
		t.Fatalf("after decode failure: hits=%d misses=%d corrupt=%d, want 0/2/1",
			st.Hits, st.Misses, st.Corruptions)
	}
	if st.Gets != st.Hits+st.Misses {
		t.Fatalf("invariant broken: gets=%d hits=%d misses=%d", st.Gets, st.Hits, st.Misses)
	}

	if _, ok := b.Get(key, 1); !ok {
		t.Fatalf("other client's read missed")
	}
	if st := b.Stats(); st.Hits != 1 || st.Misses != 0 || st.Corruptions != 0 {
		t.Fatalf("other client: hits=%d misses=%d corrupt=%d, want 1/0/0",
			st.Hits, st.Misses, st.Corruptions)
	}
}

func TestNewClientRejectsBadURL(t *testing.T) {
	for _, u := range []string{"", "not a url", "/just/a/path"} {
		if _, err := NewClient(Options{BaseURL: u}); err == nil {
			t.Fatalf("NewClient(%q) accepted a bad URL", u)
		}
	}
}

func TestServerStatsEndpoint(t *testing.T) {
	_, hs := newTestServer(t)
	resp, err := http.Get(hs.URL + "/stats")
	if err != nil {
		t.Fatalf("GET /stats: %v", err)
	}
	defer resp.Body.Close()
	var st ServerStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode /stats: %v", err)
	}
	resp2, err := http.Get(hs.URL + "/version")
	if err != nil {
		t.Fatalf("GET /version: %v", err)
	}
	defer resp2.Body.Close()
	raw, _ := io.ReadAll(resp2.Body)
	if !strings.Contains(string(raw), "test") {
		t.Fatalf("/version = %q, want the injected version string", raw)
	}
}

func hexKey(k diskcache.Key) string {
	const digits = "0123456789abcdef"
	out := make([]byte, 0, 64)
	for _, b := range k {
		out = append(out, digits[b>>4], digits[b&0xF])
	}
	return string(out)
}
