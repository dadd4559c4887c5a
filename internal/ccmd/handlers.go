package ccmd

import (
	"encoding/json"
	"net/http"
	"strconv"

	"ccmem/internal/authtoken"
	"ccmem/internal/obs"
)

// Handler builds the service's HTTP surface. The handlers are a thin
// transport skin over Service: decode with strict validation, call the
// service, encode the typed result. A request body is read whole under a
// size bound (over it, a 413) and walked once by decode.go's reader,
// which binds members as encoding/json does and refuses what its strict
// decode refuses (unknown fields, a wrong type, trailing data), in the
// same words: FuzzDecodeRequest holds the two to parity. Every error
// travels as {"error": APIError}; 429 and 503 carry Retry-After.
//
// authToken, when non-empty, gates every data endpoint (/compile, /run,
// /report, /metrics, /trace) behind a bearer token — a request without
// it is a 401 in the same structured-error shape as every other
// failure. Health probes (/healthz, /readyz, /version) stay open so
// load balancers need no secret.
func Handler(s *Service, version string, authToken string) http.Handler {
	authed := func(h http.HandlerFunc) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if !authtoken.Authorize(r, authToken) {
				s.unauthorized.Add(1)
				s.reg.Counter("ccmd.unauthorized").Inc()
				w.Header().Set("WWW-Authenticate", `Bearer realm="ccmd"`)
				writeError(w, &APIError{Status: http.StatusUnauthorized, Code: CodeUnauthorized,
					Message: "missing or invalid bearer token"})
				return
			}
			h(w, r)
		}
	}
	// JSON escapes each tab and newline of ILOC text as two bytes, so a
	// body may be twice its program's size, plus room for the config.
	maxBody := 2*s.cfg.MaxProgramBytes + 64*1024
	mux := http.NewServeMux()
	mux.HandleFunc("POST /compile", authed(func(w http.ResponseWriter, r *http.Request) {
		var req CompileRequest
		if apiErr := decodeJSON(w, r, maxBody, s.bodyTimeout, (*reader).compileRequest, &req); apiErr != nil {
			writeError(w, apiErr)
			return
		}
		resp, apiErr := s.Compile(r.Context(), &req)
		if apiErr != nil {
			writeError(w, apiErr)
			return
		}
		writeCompileResponse(w, resp)
	}))
	mux.HandleFunc("POST /run", authed(func(w http.ResponseWriter, r *http.Request) {
		var req RunRequest
		if apiErr := decodeJSON(w, r, maxBody, s.bodyTimeout, (*reader).runRequest, &req); apiErr != nil {
			writeError(w, apiErr)
			return
		}
		resp, apiErr := s.Run(r.Context(), &req)
		if apiErr != nil {
			writeError(w, apiErr)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	}))
	mux.HandleFunc("GET /report", authed(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Report())
	}))
	mux.HandleFunc("GET /metrics", authed(func(w http.ResponseWriter, r *http.Request) {
		resp := MetricsResponse{Service: s.Stats(), Driver: s.Report()}
		if snap := s.Metrics(); snap != nil {
			if raw, err := json.Marshal(snap); err == nil {
				resp.Registry = raw
			}
		}
		writeJSON(w, http.StatusOK, resp)
	}))
	mux.HandleFunc("GET /trace", authed(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_ = obs.WriteChromeTraceSpans(w, s.TraceSpans())
	}))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		// Liveness plus storage health: the daemon serves compiles even
		// with a broken persistent tier (the driver falls back to the
		// memory tier), but operators should see "degraded" and the why.
		if err := s.Driver().DiskCacheErr(); err != nil {
			writeJSON(w, http.StatusOK, HealthResponse{Status: "degraded",
				Detail: "disk cache unavailable: " + err.Error()})
			return
		}
		if state := s.Driver().RemoteCircuit(); state == "open" {
			writeJSON(w, http.StatusOK, HealthResponse{Status: "degraded",
				Detail: remoteDegradedDetail})
			return
		}
		writeJSON(w, http.StatusOK, HealthResponse{Status: "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		// Readiness gates traffic: draining or a broken persistent tier
		// means "send new work elsewhere" (503), though in-flight and
		// retried requests still complete.
		if s.Draining() {
			w.Header().Set("Retry-After", strconv.Itoa(s.RetryAfterSeconds()))
			writeJSON(w, http.StatusServiceUnavailable, HealthResponse{Status: "draining"})
			return
		}
		if err := s.Driver().DiskCacheErr(); err != nil {
			w.Header().Set("Retry-After", strconv.Itoa(s.RetryAfterSeconds()))
			writeJSON(w, http.StatusServiceUnavailable, HealthResponse{Status: "degraded",
				Detail: "disk cache unavailable: " + err.Error()})
			return
		}
		// An open remote-cache circuit is degraded, NOT dead: compiles
		// keep flowing (the tier is skipped and every lookup falls through
		// to a local compile), so readiness stays 200 and the state rides
		// along for operators. Failing readiness here would take capacity
		// offline exactly when the shared cache already is.
		if state := s.Driver().RemoteCircuit(); state == "open" {
			writeJSON(w, http.StatusOK, HealthResponse{Status: "degraded",
				Detail: remoteDegradedDetail})
			return
		}
		writeJSON(w, http.StatusOK, HealthResponse{Status: "ok"})
	})
	mux.HandleFunc("GET /version", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, VersionResponse{Version: version})
	})
	return mux
}

// remoteDegradedDetail phrases an open remote circuit for the health
// probes.
const remoteDegradedDetail = "remote cache circuit open; tier skipped until the breaker recovers"

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, e *APIError) {
	if e.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.RetryAfter))
	}
	writeJSON(w, e.Status, struct {
		Error *APIError `json:"error"`
	}{e})
}
