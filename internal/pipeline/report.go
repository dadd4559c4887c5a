package pipeline

import (
	"sync"
	"time"

	"ccmem/internal/obs"
)

// Pass names, in pipeline order. PassInput is not a pass: it names the
// pre-pass verification checkpoint, so a broken invariant already present
// in the input is attributed to the input rather than to the first pass.
const (
	PassInput    = "input"
	PassOptimize = "optimize"
	PassRegalloc = "regalloc"
	PassPostPass = "postpass"
	PassCompact  = "compact"
	PassVerify   = "verify"
)

// passOrder fixes the order passes appear in a Report regardless of
// completion order under parallelism.
var passOrder = []string{PassOptimize, PassRegalloc, PassPostPass, PassCompact, PassVerify}

// PassStat aggregates one pass over every function it ran on. Cache hits
// skip passes entirely, so Runs counts real executions only; under a
// parallel pool WallNanos is summed worker time, which can exceed the
// compile's wall clock.
type PassStat struct {
	Name         string `json:"name"`
	Runs         int64  `json:"runs"`
	WallNanos    int64  `json:"wall_ns"`
	InstrsBefore int64  `json:"instrs_before"`
	InstrsAfter  int64  `json:"instrs_after"`
}

// TierStats counts one tier of the two-tier artifact cache.
type TierStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
}

// DiskTierStats is the persistent tier's TierStats plus its robustness
// counters: integrity failures detected (corruptions), entries withdrawn
// from the read path (quarantines), I/O errors, dead temp files swept
// after a crash, and how many times the tier shut its write path off
// after persistent failures (degraded-to-memory). Zero-valued when no
// disk tier is attached.
type DiskTierStats struct {
	TierStats
	Writes           int64 `json:"writes"`
	Corruptions      int64 `json:"corruptions"`
	Quarantines      int64 `json:"quarantines"`
	ReadErrors       int64 `json:"read_errors"`
	WriteErrors      int64 `json:"write_errors"`
	SweptTemps       int64 `json:"swept_temps"`
	DegradedToMemory int64 `json:"degraded_to_memory"`
	Bytes            int64 `json:"bytes"`
	Degraded         bool  `json:"degraded,omitempty"`
}

// RemoteTierStats is the remote HTTP tier's hit/miss accounting plus
// its robustness counters: write-behind activity (puts, queue-overflow
// drops, failed stores), failure classification for lookups that never
// reached a healthy server (retries, timeouts, transport errors, HTTP
// errors, responses that failed re-verification), lookups skipped
// outright by an open circuit, and the circuit breaker's trip/probe
// history with its current position ("closed", "half-open", "open").
// HitRate is Hits/(Hits+Misses), 0 when the tier was never consulted.
// Zero-valued when no remote tier is attached.
type RemoteTierStats struct {
	Hits    int64   `json:"hits"`
	Misses  int64   `json:"misses"`
	HitRate float64 `json:"hit_rate"`

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
	Circuit string `json:"circuit,omitempty"`
}

// CacheStats is a snapshot of the content-addressed cache's counters
// across all tiers. Hits counts artifacts served from any tier, Misses
// lookups that had to fall through to a real compile; HitRate is the
// precomputed ratio, and Hits == Memory.Hits + Disk.Hits + Remote.Hits
// (every resolved lookup lands in exactly one tier's counters).
// Evictions and Entries describe the memory tier (the historical
// meaning); Memory, Disk, and Remote break each tier out.
type CacheStats struct {
	Hits      int64           `json:"hits"`
	Misses    int64           `json:"misses"`
	Evictions int64           `json:"evictions"`
	Entries   int             `json:"entries"`
	HitRate   float64         `json:"hit_rate"`
	Memory    TierStats       `json:"memory"`
	Disk      DiskTierStats   `json:"disk"`
	Remote    RemoteTierStats `json:"remote"`
}

// FuncReport is the per-function compilation summary.
type FuncReport struct {
	SpillBytesNaive     int64 `json:"spill_bytes_naive"`     // one frame slot per spilled live range
	SpillBytesCompacted int64 `json:"spill_bytes_compacted"` // after coloring-based compaction
	CCMBytes            int64 `json:"ccm_bytes"`             // CCM high-water of the function's own code
	SpilledRanges       int   `json:"spilled_ranges"`
	PromotedWebs        int   `json:"promoted_webs"` // spill live ranges redirected to the CCM
	SpillWebs           int   `json:"spill_webs"`    // spill-location live ranges seen by compaction
	Instrs              int   `json:"instrs"`        // final static instruction count
	FrontCacheHit       bool  `json:"front_cache_hit"`
	BackCacheHit        bool  `json:"back_cache_hit"`

	// Fault-isolation outcome. Attempts counts front-stage tries, one per
	// rung (1 = clean first try); Degraded names the rung the function
	// shipped at ("no-opt", "baseline", "no-ccm", with "+no-compact"
	// appended when the back stage also degraded); FailedPass and Error
	// describe the last recovered fault or divergence.
	Attempts   int    `json:"attempts,omitempty"`
	Degraded   string `json:"degraded,omitempty"`
	FailedPass string `json:"failed_pass,omitempty"`
	Error      string `json:"error,omitempty"`
}

// Report is the structured result of one Compile (or, via
// Driver.Metrics, the cumulative totals of many). It marshals to the
// JSON printed by `ccmc -json` and `ccmbench -json`.
type Report struct {
	Strategy        string                `json:"strategy"`
	Workers         int                   `json:"workers"`
	Compiles        int64                 `json:"compiles,omitempty"` // cumulative reports only
	Funcs           int                   `json:"funcs"`
	WallNanos       int64                 `json:"wall_ns"`
	ProgramCacheHit bool                  `json:"program_cache_hit,omitempty"`
	ProgramHits     int64                 `json:"program_hits,omitempty"` // cumulative reports only
	Passes          []PassStat            `json:"passes"`
	PerFunc         map[string]FuncReport `json:"per_func,omitempty"`
	Cache           CacheStats            `json:"cache"`

	// Fault-isolation counters: recovered pass faults, functions shipped
	// below configured fidelity, and the crash repro bundles written.
	Failures   int64    `json:"failures,omitempty"`
	Degraded   int64    `json:"degraded,omitempty"`
	Repros     []string `json:"repros,omitempty"`
	ReproError string   `json:"repro_error,omitempty"`

	// Differential-oracle counters (Config.DiffCheck). DiffFuncsChecked
	// counts entry functions executed on both sides (bisection re-checks
	// included), DiffRuns the conclusive (entry, vector) executions,
	// DiffInconclusive the runs skipped on a resource limit. Divergences
	// counts detected miscompiles; DivergentPasses is the histogram of
	// the first semantically-divergent pass each bisected to.
	DiffFuncsChecked int64            `json:"diff_funcs_checked,omitempty"`
	DiffRuns         int64            `json:"diff_runs,omitempty"`
	DiffInconclusive int64            `json:"diff_inconclusive,omitempty"`
	Divergences      int64            `json:"divergences,omitempty"`
	DivergentPasses  map[string]int64 `json:"divergent_passes,omitempty"`

	// Observability (Options.Tracer / Options.Metrics). Spans is the
	// total span count recorded on the driver's tracer; Metrics is a
	// point-in-time snapshot of the driver's registry — counters and
	// gauges are deterministic across worker counts, histogram bucket
	// placements (wall clock) are not. Both are zero/nil when the
	// corresponding option is off.
	Spans   int64         `json:"spans,omitempty"`
	Metrics *obs.Snapshot `json:"metrics,omitempty"`

	// digest is the compiled program's programDigest, which Driver.Run
	// keys the program's runs by; zero when the compile did not compute
	// it (no cache and no oracle) or served a program decoded from a
	// lower tier.
	digest digest
}

// metrics accumulates per-pass statistics; safe for concurrent workers.
// When reg is non-nil, every recorded pass also feeds a per-pass latency
// histogram ("pass.<name>") in the registry.
type metrics struct {
	mu     sync.Mutex
	reg    *obs.Registry
	passes map[string]*PassStat
}

func newMetrics(reg *obs.Registry) *metrics {
	return &metrics{reg: reg, passes: make(map[string]*PassStat, len(passOrder))}
}

func (m *metrics) pass(name string, d time.Duration, before, after int) {
	if m.reg != nil {
		m.reg.Histogram("pass." + name).Observe(d)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	p := m.passes[name]
	if p == nil {
		p = &PassStat{Name: name}
		m.passes[name] = p
	}
	p.Runs++
	p.WallNanos += d.Nanoseconds()
	p.InstrsBefore += int64(before)
	p.InstrsAfter += int64(after)
}

// merge folds o into m (used for the driver's cumulative totals).
func (m *metrics) merge(o *metrics) {
	o.mu.Lock()
	defer o.mu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	for name, op := range o.passes {
		p := m.passes[name]
		if p == nil {
			p = &PassStat{Name: name}
			m.passes[name] = p
		}
		p.Runs += op.Runs
		p.WallNanos += op.WallNanos
		p.InstrsBefore += op.InstrsBefore
		p.InstrsAfter += op.InstrsAfter
	}
}

// stats returns the accumulated passes in pipeline order.
func (m *metrics) stats() []PassStat {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]PassStat, 0, len(m.passes))
	for _, name := range passOrder {
		if p, ok := m.passes[name]; ok {
			out = append(out, *p)
		}
	}
	return out
}
