package ccmd

import (
	"encoding/json"
	"fmt"
	"net/http"

	"ccmem/internal/pipeline"
)

// Error codes: stable strings clients branch on without parsing
// messages. Each maps onto exactly one HTTP status (see APIError) and,
// where one exists, mirrors a ccmc exit code — the README's status
// table spells out the correspondence.
const (
	CodeBadRequest   = "bad-request"   // 400: malformed JSON, unknown field, invalid value
	CodeUnauthorized = "unauthorized"  // 401: missing or wrong bearer token
	CodeBadProgram   = "bad-program"   // 422: program text fails to parse or verify
	CodeCompileFault = "compile-fault" // 422: strict-mode pass fault (ccmc exit 1)
	CodeMiscompile   = "miscompile"    // 422: strict-mode oracle divergence (ccmc exit 4)
	CodeRunFault     = "run-fault"     // 422: execution faulted or hit a resource limit
	CodeSaturated    = "saturated"     // 429: admission queue full service-wide; retry after backoff
	CodeDraining     = "draining"      // 503: the service is shutting down
	CodeCanceled     = "canceled"      // 499-ish: the client went away mid-compile
	CodeInternal     = "internal"      // 500: anything the service cannot attribute
)

// APIError is the service's one error shape: every non-2xx response
// body is {"error": <APIError>}. Status is the HTTP status it travels
// under (not serialized — the status line already carries it); Field
// names the request field a validation failure is about; RetryAfter is
// the backoff hint echoed in the Retry-After header on 429/503.
type APIError struct {
	Status     int    `json:"-"`
	Code       string `json:"code"`
	Message    string `json:"message"`
	Field      string `json:"field,omitempty"`
	RetryAfter int    `json:"retry_after_seconds,omitempty"`
}

func (e *APIError) Error() string {
	if e.Field != "" {
		return fmt.Sprintf("%s (%s): %s", e.Code, e.Field, e.Message)
	}
	return fmt.Sprintf("%s: %s", e.Code, e.Message)
}

// errBadRequest builds a 400 validation error about one request field.
func errBadRequest(field, format string, args ...any) *APIError {
	return &APIError{Status: http.StatusBadRequest, Code: CodeBadRequest,
		Field: field, Message: fmt.Sprintf(format, args...)}
}

// errBadProgram builds a 422 for program text the front end rejects.
func errBadProgram(err error) *APIError {
	return &APIError{Status: http.StatusUnprocessableEntity, Code: CodeBadProgram,
		Field: "program", Message: err.Error()}
}

// RequestConfig is the per-request slice of pipeline.Config a client
// may set. It deliberately excludes the driver-level knobs (cache
// location, worker-pool ceiling): those belong to the operator, not the
// request. Workers is a hint, clamped to the shared driver's pool size;
// compilation is deterministic across worker counts, so the hint can
// change latency but never bytes.
type RequestConfig struct {
	Strategy  string `json:"strategy,omitempty"` // none | postpass | postpass-ipa | integrated
	CCMBytes  int64  `json:"ccm_bytes,omitempty"`
	IntRegs   int    `json:"int_regs,omitempty"`   // default 32
	FloatRegs int    `json:"float_regs,omitempty"` // default 32

	DisableOptimizer  bool `json:"no_opt,omitempty"`
	DisableCompaction bool `json:"no_compact,omitempty"`

	VerifyPasses bool   `json:"verify_passes,omitempty"`
	TimeoutMS    int64  `json:"timeout_ms,omitempty"` // per-function attempt timeout, clamped to the service max
	Strict       bool   `json:"strict,omitempty"`
	DiffCheck    string `json:"diff_check,omitempty"` // off | final
	DiffVectors  int    `json:"diff_vectors,omitempty"`

	Workers int `json:"workers,omitempty"` // hint: 0 = the shared driver's pool
}

// RequestOptions are per-request service options, outside the compile
// configuration; they never affect output bytes.
type RequestOptions struct {
	// Trace records a span for every stage, pass, cache lookup, and
	// oracle run of this request and returns the Chrome trace-event JSON
	// in the response (also visible on GET /trace).
	Trace bool `json:"trace,omitempty"`
	// Repro writes crash/miscompile repro bundles for this request's
	// faults under the service repro directory, namespaced by tenant.
	Repro bool `json:"repro,omitempty"`
}

// CompileRequest is the body of POST /compile.
type CompileRequest struct {
	// Tenant namespaces this request's repro bundles ("" = "default").
	// Validated as a single safe path component; see repro.ValidTenant.
	Tenant  string         `json:"tenant,omitempty"`
	Program string         `json:"program"`
	Config  RequestConfig  `json:"config"`
	Options RequestOptions `json:"options"`
}

// CompileResponse is the body of a 200 from POST /compile. Output is
// allocated ILOC, byte-identical to what a solo ccmc compile of the
// same (program, config) prints. A compile that recovered faults by
// degradation still returns 200 (the artifact is correct, below
// configured fidelity) with Report.Failures/Degraded/Divergences
// counting what happened — the HTTP twin of ccmc exits 3 and 4.
type CompileResponse struct {
	Output string           `json:"output"`
	Report *pipeline.Report `json:"report"`
	// Trace is the request's Chrome trace-event JSON (Options.Trace).
	Trace json.RawMessage `json:"trace,omitempty"`
}

// RunRequest is the body of POST /run: execute a program on the
// instrumented abstract machine.
type RunRequest struct {
	Program  string `json:"program"`
	Entry    string `json:"entry,omitempty"` // default "main"
	CCMBytes int64  `json:"ccm_bytes,omitempty"`
	MemCost  int    `json:"mem_cost,omitempty"`
	// MaxSteps/MaxDepth bound the run; both are clamped to the service
	// ceilings so one request cannot monopolize a worker.
	MaxSteps int64 `json:"max_steps,omitempty"`
	MaxDepth int   `json:"max_depth,omitempty"`
}

// RunResponse is the body of a 200 from POST /run.
type RunResponse struct {
	Instrs      int64    `json:"instrs"`
	Cycles      int64    `json:"cycles"`
	MemOpCycles int64    `json:"memop_cycles"`
	MainMemOps  int64    `json:"main_mem_ops"`
	CCMOps      int64    `json:"ccm_ops"`
	SpillStores int64    `json:"spill_stores"`
	SpillLoads  int64    `json:"spill_loads"`
	CCMSpills   int64    `json:"ccm_spills"`
	CCMRestores int64    `json:"ccm_restores"`
	Output      []string `json:"output,omitempty"` // the observable emit trace
}

// VersionResponse is the body of GET /version.
type VersionResponse struct {
	Version string `json:"version"`
}

// HealthResponse is the body of GET /healthz and GET /readyz.
type HealthResponse struct {
	Status string `json:"status"` // "ok", "draining", or "degraded"
	Detail string `json:"detail,omitempty"`
}

// MetricsResponse is the body of GET /metrics: the service's own
// admission counters plus the shared obs registry snapshot (which the
// driver, both cache tiers, the allocator, and the oracle all record
// into) and the driver's cumulative per-pass report.
type MetricsResponse struct {
	Service  ServiceStats     `json:"service"`
	Registry json.RawMessage  `json:"metrics,omitempty"`
	Driver   *pipeline.Report `json:"driver,omitempty"`
}

// ServiceStats counts the service's admission activity.
type ServiceStats struct {
	Requests          int64 `json:"requests"`
	Inflight          int64 `json:"inflight"`
	Queued            int64 `json:"queued"`
	MaxInflight       int   `json:"max_inflight"`
	MaxQueue          int   `json:"max_queue"`
	RejectedSaturated int64 `json:"rejected_saturated"`
	RejectedDraining  int64 `json:"rejected_draining"`
	TraceRequests     int64 `json:"trace_requests"`
	Draining          bool  `json:"draining"`

	// Unauthorized counts requests refused at the HTTP door for a
	// missing or wrong bearer token.
	Unauthorized int64 `json:"unauthorized"`

	// RemoteCircuit is the remote cache tier's breaker state ("closed",
	// "half-open", "open"; "" when no remote tier is configured). An
	// open circuit degrades the service — lookups skip the tier — but
	// never fails readiness.
	RemoteCircuit string `json:"remote_circuit,omitempty"`
}
