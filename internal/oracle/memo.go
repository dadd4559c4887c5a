package oracle

import (
	"context"
	"encoding/binary"
	"sync"

	"ccmem/internal/ir"
	"ccmem/internal/sim"
)

// Memo bounds. A cold evaluation of the paper's tables stores 2,551 runs
// holding 56,677 values (1,334 trace values, the rest per-function
// counters); one run may emit up to MaxSteps trace values, so the value
// budget also caps what a single run may retain.
const (
	memoEntries = 1 << 13
	memoValues  = 1 << 18
)

// Memo remembers simulator runs across Checks and across the runs a
// driver serves its callers, so each distinct run is simulated once. It
// is safe for concurrent use; a driver shares one across everything it
// checks and runs.
//
// A run is keyed by the digest of its program's content, the entry, the
// argument bits and classes, the cost model (MemCost and CCMCost), and
// the smaller of the configured CCM and the program's CCM footprint. The
// simulator reads the CCM size only to allocate the CCM and to
// bounds-check an access, and a verified program's every access lies
// below its footprint, so a CCM covering the footprint behaves like any
// larger one. The step and depth limits only end runs, so they stay out
// of the key: a run that ended without a limit fault answers any request
// whose MaxSteps and MaxDepth are at least the limits it ran under, and
// a run a limit cut short answers only requests with its own limits.
//
// Runs with a memory model, a non-zero CCM base or a trace are never
// kept: the model carries state across accesses, the base moves every
// CCM access, and the trace is output the memo does not hold. Cancelled
// runs are never stored. When full, the oldest entries are evicted
// first; a run holding more values than the whole budget is not kept.
type Memo struct {
	maxEntries, maxValues int

	mu      sync.Mutex
	entries map[memoKey]*run
	order   []memoKey // insertion order, oldest first
	values  int       // values retained across entries
}

// NewMemo returns an empty memo with the package's fixed bounds.
func NewMemo() *Memo { return newMemo(memoEntries, memoValues) }

func newMemo(maxEntries, maxValues int) *Memo {
	return &Memo{maxEntries: maxEntries, maxValues: maxValues, entries: map[memoKey]*run{}}
}

// memoKey identifies one run up to everything the simulator can observe
// except its limits, which the run stored under the key carries.
type memoKey struct {
	prog             [32]byte
	entry            string
	args             string // class byte and bits of each argument
	memCost, ccmCost int
	ccmBytes         int64 // min(CCMBytes, the program's CCM footprint)
}

// newMemoKey is the key of runs of p, whose content digest is d, under
// cfg with its defaults applied; the entry and arguments are left blank.
func newMemoKey(d [32]byte, p *ir.Program, cfg sim.Config) memoKey {
	return memoKey{
		prog:     d,
		memCost:  cfg.MemCost,
		ccmCost:  cfg.CCMCost,
		ccmBytes: min(cfg.CCMBytes, maxCCMFootprint(p)),
	}
}

// argKey encodes an argument vector for memoKey.args.
func argKey(args []sim.Value) string {
	b := make([]byte, 0, 9*len(args))
	for _, a := range args {
		cls := byte(0)
		if a.IsFloat {
			cls = 1
		}
		b = binary.LittleEndian.AppendUint64(append(b, cls), a.Bits)
	}
	return string(b)
}

// run is the outcome of one simulation, shared read-only by every hit.
type run struct {
	st       *sim.Stats
	fault    *sim.Fault // nil on clean termination
	maxSteps int64      // the limits it ran under
	maxDepth int
}

// limited reports whether a resource limit cut the run short.
func (r *run) limited() bool { return r.fault != nil && r.fault.Kind == sim.FaultLimit }

// serves reports whether r is the run a request with these limits makes.
func (r *run) serves(maxSteps int64, maxDepth int) bool {
	if r.limited() {
		return maxSteps == r.maxSteps && maxDepth == r.maxDepth
	}
	return maxSteps >= r.maxSteps && maxDepth >= r.maxDepth
}

// size is what r counts against the value budget.
func (r *run) size() int { return len(r.st.Output) + len(r.st.PerFunc) }

// result returns r as sim.Run returns a run.
func (r *run) result() (*sim.Stats, error) {
	if r.fault != nil {
		return r.st, r.fault
	}
	return r.st, nil
}

// simulate runs entry on m, which was resolved under cfg with its
// defaults applied. A cancelled or unrunnable run returns the
// simulator's error and no run.
func simulate(ctx context.Context, m *sim.Machine, cfg sim.Config, entry string, args []sim.Value) (*run, error) {
	st, err := m.RunContext(ctx, entry, args...)
	r := &run{st: st, maxSteps: cfg.MaxSteps, maxDepth: cfg.MaxDepth}
	if err != nil {
		f, ok := err.(*sim.Fault)
		if !ok || f.Kind == sim.FaultCancelled {
			return nil, err
		}
		r.fault = f
	}
	return r, nil
}

// Run executes entry(args...) of p, whose content digest is d, under cfg
// and returns its statistics and fault as sim.Run does; a cancelled or
// unrunnable run returns only its error. A run the memo holds is served
// without resolving or simulating p, and hit reports it; the Stats are
// then shared with every other hit and must not be written. Equal
// digests must mean equal programs.
func (m *Memo) Run(ctx context.Context, p *ir.Program, d [32]byte, cfg sim.Config, entry string, args ...sim.Value) (st *sim.Stats, hit bool, err error) {
	if cfg.Memory != nil || cfg.CCMBase != 0 || cfg.Trace != nil {
		mach, err := sim.New(p, cfg)
		if err != nil {
			return nil, false, err
		}
		st, err := mach.RunContext(ctx, entry, args...)
		return st, false, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, false, err
	}
	cfg = cfg.WithDefaults()
	k := newMemoKey(d, p, cfg)
	k.entry, k.args = entry, argKey(args)
	if r, ok := m.get(k, cfg.MaxSteps, cfg.MaxDepth); ok {
		st, err := r.result()
		return st, true, err
	}
	mach, err := sim.New(p, cfg)
	if err != nil {
		return nil, false, err
	}
	r, err := simulate(ctx, mach, cfg, entry, args)
	if err != nil {
		return nil, false, err
	}
	m.put(k, r)
	st, err = r.result()
	return st, false, err
}

// get returns the run stored under k if it answers a request with these
// limits.
func (m *Memo) get(k memoKey, maxSteps int64, maxDepth int) (*run, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.entries[k]
	if !ok || !r.serves(maxSteps, maxDepth) {
		return nil, false
	}
	return r, true
}

// put stores r under k, evicting the oldest entries until both budgets
// hold. A run already under k stays unless r completed and the stored run
// would not answer r's request: a completed run answers every request
// its limits cover, and a limited run answers only its own limits.
func (m *Memo) put(k memoKey, r *run) {
	n := r.size()
	if n > m.maxValues {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if old, ok := m.entries[k]; ok {
		if r.limited() || old.serves(r.maxSteps, r.maxDepth) {
			return // a concurrent request stored the run, or a more useful one
		}
		m.values -= old.size()
	} else {
		m.order = append(m.order, k)
	}
	m.entries[k] = r
	m.values += n
	for len(m.entries) > m.maxEntries || m.values > m.maxValues {
		old := m.order[0]
		m.order = m.order[1:]
		m.values -= m.entries[old].size()
		delete(m.entries, old)
	}
}
