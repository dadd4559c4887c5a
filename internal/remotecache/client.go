// Package remotecache is the network tier of the artifact cache
// hierarchy: an HTTP cache server (Server, fronted by cmd/ccmcached)
// that stores disk-cache entries for many compile processes, and a
// hardened Client the pipeline consults after the memory and disk tiers
// miss.
//
// The wire format IS the disk format: every entry travels as the
// self-verifying encoding from internal/diskcache (versioned header,
// embedded key and kind, SHA-256 trailer over the whole record), so
// both ends re-verify every byte they receive. The server verifies on
// ingest (a corrupt upload is rejected with a structured error, never
// stored) and on read (its diskcache store re-checks and quarantines),
// and the client re-verifies every response — a truncated, bit-flipped,
// or mis-keyed response reads as a miss, never as a wrong artifact.
//
// The client's contract mirrors the disk tier's, extended across the
// network: a healthy remote tier lets processes share compiles; a sick
// one — timeouts, refused connections, truncated bodies, bit flips,
// 5xxs, or a server that is simply gone — can cost time but can never
// change compile output and never fail a compile. The hardening that
// delivers that:
//
//   - a per-request timeout, so one slow response cannot stall a worker;
//   - bounded retries with deterministic exponential backoff (no jitter:
//     repeatable tests beat thundering-herd polish at this scale);
//   - a response-size cap, so a malicious or broken server cannot balloon
//     memory;
//   - SHA-256 re-verification of every response against the requested
//     key and kind;
//   - a circuit breaker: after TripAfter consecutive failed operations
//     the remote tier is skipped entirely (every lookup is an instant
//     miss), and after a cooldown a single half-open probe decides
//     whether to close the circuit again;
//   - asynchronous bounded write-behind for puts: stores never block a
//     compile, and a full queue drops the put (counted) rather than
//     growing without bound.
package remotecache

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ccmem/internal/diskcache"
	"ccmem/internal/obs"
)

// Tuning groups the client's hardening knobs. The zero value takes the
// defaults below; tests shrink the timeouts and inject clocks.
type Tuning struct {
	// RequestTimeout bounds each HTTP attempt (default 2s).
	RequestTimeout time.Duration
	// Retries is the number of extra attempts after a failed one
	// (default 2; <0 means none).
	Retries int
	// Backoff is the delay before the first retry, doubling per retry —
	// deterministic on purpose (default 25ms).
	Backoff time.Duration
	// MaxResponseBytes caps one GET response (default 64 MiB); anything
	// larger is a corrupt response, not an allocation.
	MaxResponseBytes int64
	// TripAfter is the consecutive-failure count that opens the circuit
	// (default 5).
	TripAfter int
	// HalfOpenAfter is the open-circuit cooldown before one half-open
	// probe is allowed (default 2s).
	HalfOpenAfter time.Duration
	// PutQueue bounds the write-behind queue (default 256 entries);
	// puts beyond it are dropped and counted.
	PutQueue int

	// Now and Sleep are test seams for the breaker clock and the retry
	// backoff; nil means time.Now and time.Sleep.
	Now   func() time.Time
	Sleep func(time.Duration)
}

func (t Tuning) withDefaults() Tuning {
	if t.RequestTimeout <= 0 {
		t.RequestTimeout = 2 * time.Second
	}
	if t.Retries < 0 {
		t.Retries = 0
	} else if t.Retries == 0 {
		t.Retries = 2
	}
	if t.Backoff <= 0 {
		t.Backoff = 25 * time.Millisecond
	}
	if t.MaxResponseBytes <= 0 {
		t.MaxResponseBytes = 64 << 20
	}
	if t.TripAfter <= 0 {
		t.TripAfter = 5
	}
	if t.HalfOpenAfter <= 0 {
		t.HalfOpenAfter = 2 * time.Second
	}
	if t.PutQueue <= 0 {
		t.PutQueue = 256
	}
	if t.Now == nil {
		t.Now = time.Now
	}
	if t.Sleep == nil {
		t.Sleep = time.Sleep
	}
	return t
}

// Options configure NewClient.
type Options struct {
	// BaseURL is the cache server's root, e.g. "http://10.0.0.7:8348".
	BaseURL string
	// RoundTripper overrides the HTTP transport — the fault-injection
	// seam (FaultRT). nil uses http.DefaultTransport.
	RoundTripper http.RoundTripper
	// AuthToken, when non-empty, is sent as "Authorization: Bearer
	// <token>" on every request — required when the cache daemon runs
	// with -auth-token.
	AuthToken string
	// Obs receives the remotecache.circuit_state gauge transitions; the
	// numeric counters are snapshotted via Stats. nil disables.
	Obs *obs.Registry
	// Tuning holds the hardening knobs; zero fields take defaults.
	Tuning Tuning
}

// Stats is a snapshot of the client's counters. Hits+Misses == Gets:
// every lookup resolves to exactly one of the two, with Skipped
// (circuit-open fast misses) and the failure-classification counters
// explaining the misses that never touched a healthy server.
type Stats struct {
	Gets   int64 `json:"gets"`
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`

	Puts      int64 `json:"puts"`
	PutDrops  int64 `json:"put_drops"`
	PutErrors int64 `json:"put_errors"`

	Retries     int64 `json:"retries"`
	Timeouts    int64 `json:"timeouts"`
	NetErrors   int64 `json:"net_errors"`
	HTTPErrors  int64 `json:"http_errors"`
	Corruptions int64 `json:"corruptions"`
	Skipped     int64 `json:"skipped"`

	Trips   int64  `json:"trips"`
	Probes  int64  `json:"probes"`
	Circuit string `json:"circuit"`
}

// errCorrupt marks a response that failed re-verification (truncation,
// checksum, wrong embedded key or kind, or over the size cap). It is a
// failure like any other — retried, breaker-counted — because a server
// emitting garbage is as sick as one emitting nothing.
var errCorrupt = errors.New("remotecache: corrupt response")

type putReq struct {
	data []byte // pre-encoded entry
	key  diskcache.Key
	kind uint32
}

// Client is one process's handle on a remote cache server. All methods
// are safe for concurrent use; Get is synchronous, Put is write-behind.
type Client struct {
	base  string
	token string
	http  *http.Client
	tun   Tuning
	brk   *breaker

	putMu   sync.RWMutex // guards puts-channel send vs Close
	puts    chan putReq
	pending atomic.Int64
	closed  atomic.Bool
	wg      sync.WaitGroup

	gets, hits, misses            atomic.Int64
	putsN, putDrops, putErrors    atomic.Int64
	retries, timeouts, netErrors  atomic.Int64
	httpErrors, corrupt, skippedN atomic.Int64
}

// NewClient validates the base URL and starts the write-behind worker.
func NewClient(opts Options) (*Client, error) {
	u, err := url.Parse(opts.BaseURL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("remotecache: invalid base URL %q", opts.BaseURL)
	}
	tun := opts.Tuning.withDefaults()
	rt := opts.RoundTripper
	if rt == nil {
		rt = http.DefaultTransport
	}
	c := &Client{
		base:  strings.TrimRight(opts.BaseURL, "/"),
		token: opts.AuthToken,
		http:  &http.Client{Transport: rt},
		tun:   tun,
		brk:   newBreaker(tun.TripAfter, tun.HalfOpenAfter, tun.Now, opts.Obs),
		puts:  make(chan putReq, tun.PutQueue),
	}
	c.wg.Add(1)
	go c.putWorker()
	return c, nil
}

// State returns the circuit breaker's current position.
func (c *Client) State() State { return c.brk.current() }

// Get returns the verified payload stored under (key, kind), or false.
// Every failure mode — open circuit, timeout, network error, HTTP
// error, truncated or corrupt response — is a miss, never an error and
// never a wrong artifact.
func (c *Client) Get(key diskcache.Key, kind uint32) ([]byte, bool) {
	c.gets.Add(1)
	if !c.brk.allow() {
		c.skippedN.Add(1)
		c.misses.Add(1)
		return nil, false
	}
	payload, found, err := c.withRetries(http.MethodGet, key, kind, nil)
	if err != nil {
		c.brk.failure()
		c.misses.Add(1)
		return nil, false
	}
	c.brk.success()
	if !found {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return payload, true
}

// Put queues payload for asynchronous storage under (key, kind). It
// never blocks a compile: a full queue or a closed client drops the put
// (counted), and failures surface only in the stats.
func (c *Client) Put(key diskcache.Key, kind uint32, payload []byte) {
	data := diskcache.EncodeEntry(kind, key, payload)
	c.putMu.RLock()
	defer c.putMu.RUnlock()
	if c.closed.Load() {
		c.putDrops.Add(1)
		return
	}
	select {
	case c.puts <- putReq{data: data, key: key, kind: kind}:
		c.pending.Add(1)
	default:
		c.putDrops.Add(1)
	}
}

func (c *Client) putWorker() {
	defer c.wg.Done()
	for req := range c.puts {
		if c.brk.allow() {
			_, _, err := c.withRetries(http.MethodPut, req.key, req.kind, req.data)
			if err != nil {
				c.brk.failure()
				c.putErrors.Add(1)
			} else {
				c.brk.success()
				c.putsN.Add(1)
			}
		} else {
			c.skippedN.Add(1)
			c.putDrops.Add(1)
		}
		c.pending.Add(-1)
	}
}

// Flush blocks until the write-behind queue has drained or ctx expires
// — the barrier a process runs before exiting so its artifacts reach
// the server.
func (c *Client) Flush(ctx context.Context) error {
	for c.pending.Load() > 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
	return nil
}

// Close drains the remaining queued puts (fast when the circuit is
// open) and stops the write-behind worker. The client is unusable for
// puts afterwards; Gets keep working.
func (c *Client) Close() error {
	c.putMu.Lock()
	if c.closed.Swap(true) {
		c.putMu.Unlock()
		return nil
	}
	close(c.puts)
	c.putMu.Unlock()
	c.wg.Wait()
	return nil
}

// ReportDecodeFailure reclassifies the most recent hit as a miss: the
// entry's bytes verified end to end but the payload would not decode as
// an artifact — a checksum-consistent record from a buggy writer.
func (c *Client) ReportDecodeFailure() {
	c.hits.Add(-1)
	c.misses.Add(1)
	c.corrupt.Add(1)
}

// Stats returns a counter snapshot.
func (c *Client) Stats() Stats {
	trips, probes := c.brk.counters()
	return Stats{
		Gets:        c.gets.Load(),
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Puts:        c.putsN.Load(),
		PutDrops:    c.putDrops.Load(),
		PutErrors:   c.putErrors.Load(),
		Retries:     c.retries.Load(),
		Timeouts:    c.timeouts.Load(),
		NetErrors:   c.netErrors.Load(),
		HTTPErrors:  c.httpErrors.Load(),
		Corruptions: c.corrupt.Load(),
		Skipped:     c.skippedN.Load(),
		Trips:       trips,
		Probes:      probes,
		Circuit:     c.brk.current().String(),
	}
}

// withRetries runs one logical operation: up to 1+Retries attempts with
// deterministic exponential backoff between them.
func (c *Client) withRetries(method string, key diskcache.Key, kind uint32, body []byte) (payload []byte, found bool, err error) {
	backoff := c.tun.Backoff
	for attempt := 0; ; attempt++ {
		payload, found, err = c.attempt(method, key, kind, body)
		if err == nil || attempt >= c.tun.Retries {
			return payload, found, err
		}
		c.retries.Add(1)
		c.tun.Sleep(backoff)
		backoff *= 2
	}
}

// attempt is one bounded HTTP round trip, response re-verified.
func (c *Client) attempt(method string, key diskcache.Key, kind uint32, body []byte) ([]byte, bool, error) {
	ctx, cancel := context.WithTimeout(context.Background(), c.tun.RequestTimeout)
	defer cancel()
	u := fmt.Sprintf("%s/entry/%s?kind=%d", c.base, hex.EncodeToString(key[:]), kind)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, rd)
	if err != nil {
		return nil, false, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/octet-stream")
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		c.classify(err)
		return nil, false, err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
	}()
	switch {
	case resp.StatusCode == http.StatusNotFound:
		return nil, false, nil // a healthy answer: the entry isn't there
	case method == http.MethodPut && resp.StatusCode/100 == 2:
		return nil, true, nil
	case method == http.MethodGet && resp.StatusCode == http.StatusOK:
		data, err := readCapped(resp.Body, c.tun.MaxResponseBytes)
		if err != nil {
			c.corrupt.Add(1)
			return nil, false, fmt.Errorf("%w: %v", errCorrupt, err)
		}
		gotKind, gotKey, payload, err := diskcache.DecodeEntry(data)
		if err != nil || gotKey != key || gotKind != kind {
			// Truncated, bit-flipped, or answering for the wrong address:
			// whatever this is, it is not the artifact we asked for.
			c.corrupt.Add(1)
			if err == nil {
				err = fmt.Errorf("entry is for key %x kind %d", gotKey[:4], gotKind)
			}
			return nil, false, fmt.Errorf("%w: %v", errCorrupt, err)
		}
		return payload, true, nil
	default:
		c.httpErrors.Add(1)
		return nil, false, fmt.Errorf("remotecache: %s %s: HTTP %d", method, u, resp.StatusCode)
	}
}

// classify buckets a transport error for the stats.
func (c *Client) classify(err error) {
	var ne net.Error
	if errors.Is(err, context.DeadlineExceeded) || (errors.As(err, &ne) && ne.Timeout()) {
		c.timeouts.Add(1)
		return
	}
	c.netErrors.Add(1)
}

// readCapped reads at most max bytes; one byte more is an error, not an
// allocation the server controls.
func readCapped(r io.Reader, max int64) ([]byte, error) {
	data, err := io.ReadAll(io.LimitReader(r, max+1))
	if err != nil {
		return nil, err
	}
	if int64(len(data)) > max {
		return nil, fmt.Errorf("response exceeds the %d-byte cap", max)
	}
	return data, nil
}
