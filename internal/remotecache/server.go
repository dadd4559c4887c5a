package remotecache

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"

	"ccmem/internal/authtoken"
	"ccmem/internal/diskcache"
	"ccmem/internal/obs"
)

// Server error codes — the same stable-string convention as ccmd: every
// non-2xx body is {"error":{code,message}} and clients branch on the
// code, not the prose.
const (
	CodeBadRequest   = "bad-request"   // 400: malformed key, kind, or body framing
	CodeUnauthorized = "unauthorized"  // 401: missing or wrong bearer token
	CodeNotFound     = "not-found"     // 404: no verified entry under (key, kind)
	CodeCorruptEntry = "corrupt-entry" // 422: upload failed verification; nothing was stored
	CodeTooLarge     = "too-large"     // 413: upload exceeds the entry-size cap
	CodeDraining     = "draining"      // 503: daemon is shutting down; retry later
)

type apiError struct {
	status     int
	retryAfter int    // seconds; > 0 also sets the Retry-After header
	Code       string `json:"code"`
	Message    string `json:"message"`
	// RetryAfter mirrors the Retry-After header into the body so clients
	// that only parse the envelope still learn the backoff.
	RetryAfter int `json:"retry_after_seconds,omitempty"`
}

// ServerOptions configure NewServer.
type ServerOptions struct {
	// MaxBytes is the store's LRU byte budget (diskcache semantics;
	// <= 0 uses diskcache.DefaultMaxBytes, 256 MiB).
	MaxBytes int64
	// MaxEntryBytes caps one uploaded entry (default 64 MiB).
	MaxEntryBytes int64
	// AuthToken, when non-empty, gates every data endpoint (/entry/*,
	// /stats) behind a bearer token; health probes (/healthz, /readyz,
	// /version) stay open so load balancers need no secret.
	AuthToken string
	// FS is the store's filesystem; nil uses the real one (tests inject
	// faults).
	FS diskcache.FS
	// Obs receives remotecached.* counters. nil disables.
	Obs *obs.Registry
}

// ServerStats is the /stats snapshot: the HTTP skin's own counters plus
// the backing store's.
type ServerStats struct {
	Gets     int64 `json:"gets"`
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
	Puts     int64 `json:"puts"`
	Rejected int64 `json:"rejected"` // uploads refused by verification or caps

	// Unauthorized counts requests refused at the door for a missing or
	// wrong bearer token.
	Unauthorized int64 `json:"unauthorized"`

	Store diskcache.Stats `json:"store"`
}

// Server is the cache daemon's core: GET/PUT of self-verifying entries
// over one diskcache store. The store supplies the integrity discipline
// — verify on read with quarantine of anything corrupt, crash-safe
// atomic writes — and the skin adds verify-on-ingest: an upload is
// decoded and checksummed BEFORE it is stored, so a corrupt entry is
// rejected at the door instead of poisoning every client that reads it.
type Server struct {
	dc       *diskcache.Cache
	maxEntry int64
	token    string
	reg      *obs.Registry

	gets, hits, misses atomic.Int64
	puts, rejected     atomic.Int64
	unauthorized       atomic.Int64
	drained            atomic.Int64
	draining           atomic.Bool
}

// BeginDrain flips the daemon into drain mode: every subsequent data
// request is refused with 503 draining + Retry-After, and /readyz goes
// unready so load balancers and clients stop sending traffic.
// cmd/ccmcached calls this on SIGINT/SIGTERM just before the graceful
// http.Server shutdown, turning "the connection died mid-request" into
// "the server told me to come back later".
func (s *Server) BeginDrain() {
	if s.draining.CompareAndSwap(false, true) {
		s.reg.Counter("remotecached.drains").Add(1)
	}
}

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// NewServer opens (or creates) the entry store under dir.
func NewServer(dir string, opts ServerOptions) (*Server, error) {
	if opts.MaxEntryBytes <= 0 {
		opts.MaxEntryBytes = 64 << 20
	}
	dc, err := diskcache.Open(dir, diskcache.Options{
		MaxBytes: opts.MaxBytes,
		FS:       opts.FS,
	})
	if err != nil {
		return nil, fmt.Errorf("remotecache: open store: %w", err)
	}
	return &Server{
		dc:       dc,
		maxEntry: opts.MaxEntryBytes,
		token:    opts.AuthToken,
		reg:      opts.Obs,
	}, nil
}

// Store exposes the backing cache (tests reach through to seed or
// inspect entries).
func (s *Server) Store() *diskcache.Cache { return s.dc }

// Stats returns a counter snapshot.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Gets:     s.gets.Load(),
		Hits:     s.hits.Load(),
		Misses:   s.misses.Load(),
		Puts:     s.puts.Load(),
		Rejected: s.rejected.Load(),

		Unauthorized: s.unauthorized.Load(),

		Store: s.dc.Stats(),
	}
}

// Handler builds the daemon's routing table. version is served on
// GET /version (ccm.Version() in cmd/ccmcached). Data endpoints are
// gated behind the bearer token when one is configured; health probes
// stay open.
func (s *Server) Handler(version string) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /entry/{key}", s.authed(s.drainGate(s.handleGet)))
	mux.HandleFunc("PUT /entry/{key}", s.authed(s.drainGate(s.handlePut)))
	mux.HandleFunc("GET /stats", s.authed(s.handleStats))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /version", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"version": version})
	})
	return mux
}

// authed wraps a data handler with the bearer-token check. With no token
// configured it is a passthrough.
func (s *Server) authed(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !authtoken.Authorize(r, s.token) {
			s.unauthorized.Add(1)
			s.reg.Counter("remotecached.unauthorized").Add(1)
			w.Header().Set("WWW-Authenticate", `Bearer realm="remotecache"`)
			writeError(w, &apiError{status: http.StatusUnauthorized, Code: CodeUnauthorized,
				Message: "missing or invalid bearer token"})
			return
		}
		h(w, r)
	}
}

// drainGate refuses data requests once BeginDrain has fired: a stable
// 503 draining envelope plus Retry-After, so clients back off instead
// of eating a torn connection when the listener closes moments later.
func (s *Server) drainGate(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			s.drained.Add(1)
			s.reg.Counter("remotecached.drained_requests").Add(1)
			writeError(w, &apiError{status: http.StatusServiceUnavailable, retryAfter: 1,
				Code: CodeDraining, Message: "server is draining for shutdown"})
			return
		}
		h(w, r)
	}
}

// readyzResponse is the /readyz body: overall status plus the detail an
// operator needs to see at a glance — whether the disk degraded and how
// full the store is.
type readyzResponse struct {
	Status   string `json:"status"` // "ok" or "degraded"
	Degraded bool   `json:"degraded,omitempty"`
	Entries  int    `json:"entries"`
	Bytes    int64  `json:"bytes"`
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	st := s.dc.Stats()
	resp := readyzResponse{
		Status:  "ok",
		Entries: st.Entries,
		Bytes:   st.Bytes,
	}
	if s.draining.Load() {
		resp.Status = "draining"
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, resp)
		return
	}
	if st.Degraded {
		resp.Status = "degraded"
		resp.Degraded = true
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, resp)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// entryAddr parses the (key, kind) address out of the request.
func entryAddr(r *http.Request) (diskcache.Key, uint32, *apiError) {
	var key diskcache.Key
	raw, err := hex.DecodeString(r.PathValue("key"))
	if err != nil || len(raw) != len(key) {
		return key, 0, &apiError{status: http.StatusBadRequest, Code: CodeBadRequest,
			Message: fmt.Sprintf("key must be %d hex bytes", len(key))}
	}
	copy(key[:], raw)
	kind, err := strconv.ParseUint(r.URL.Query().Get("kind"), 10, 32)
	if err != nil {
		return key, 0, &apiError{status: http.StatusBadRequest, Code: CodeBadRequest,
			Message: "kind must be an unsigned integer query parameter"}
	}
	return key, uint32(kind), nil
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	s.gets.Add(1)
	s.reg.Counter("remotecached.gets").Add(1)
	key, kind, aerr := entryAddr(r)
	if aerr != nil {
		writeError(w, aerr)
		return
	}
	payload, ok := s.dc.Get(key, kind)
	if !ok {
		s.misses.Add(1)
		s.reg.Counter("remotecached.misses").Add(1)
		writeError(w, &apiError{status: http.StatusNotFound, Code: CodeNotFound,
			Message: "no entry under that key and kind"})
		return
	}
	s.hits.Add(1)
	s.reg.Counter("remotecached.hits").Add(1)
	data := diskcache.EncodeEntry(kind, key, payload)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

func (s *Server) handlePut(w http.ResponseWriter, r *http.Request) {
	s.puts.Add(1)
	s.reg.Counter("remotecached.puts").Add(1)
	key, kind, aerr := entryAddr(r)
	if aerr != nil {
		writeError(w, aerr)
		return
	}
	data, err := readCapped(r.Body, s.maxEntry)
	if err != nil {
		s.rejected.Add(1)
		s.reg.Counter("remotecached.rejected").Add(1)
		writeError(w, &apiError{status: http.StatusRequestEntityTooLarge, Code: CodeTooLarge,
			Message: err.Error()})
		return
	}
	// Verify on ingest: decode + checksum, and the embedded address must
	// match the one in the URL — an entry that lies about its own key
	// would serve the wrong artifact to every later reader.
	gotKind, gotKey, payload, err := diskcache.DecodeEntry(data)
	if err != nil {
		s.rejected.Add(1)
		s.reg.Counter("remotecached.rejected").Add(1)
		writeError(w, &apiError{status: http.StatusUnprocessableEntity, Code: CodeCorruptEntry,
			Message: fmt.Sprintf("entry failed verification: %v", err)})
		return
	}
	if gotKey != key || gotKind != kind {
		s.rejected.Add(1)
		s.reg.Counter("remotecached.rejected").Add(1)
		writeError(w, &apiError{status: http.StatusUnprocessableEntity, Code: CodeCorruptEntry,
			Message: "entry's embedded key/kind does not match the request address"})
		return
	}
	s.dc.Put(key, kind, payload)
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, e *apiError) {
	if e.retryAfter > 0 {
		e.RetryAfter = e.retryAfter
		w.Header().Set("Retry-After", strconv.Itoa(e.retryAfter))
	}
	writeJSON(w, e.status, map[string]*apiError{"error": e})
}
