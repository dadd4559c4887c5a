package oracle

import (
	"context"
	"encoding/binary"
	"sync"

	"ccmem/internal/ir"
	"ccmem/internal/sim"
)

// Memo bounds. A cold evaluation of the paper's tables stores 2,551
// observations holding 1,334 trace values; one run may emit up to
// MaxSteps values, so the value budget also caps what a single
// observation may retain.
const (
	memoEntries = 1 << 13
	memoValues  = 1 << 18
)

// Memo remembers observations across Checks, so each distinct run is
// simulated once. It is safe for concurrent use; a driver shares one
// across all the compiles it checks.
//
// A run is keyed by the digest of its program's content, the entry, the
// argument bits and classes, MaxSteps, MaxDepth, and the smaller of the
// configured CCM and the program's CCM footprint. The simulator reads
// the CCM size only to allocate the CCM and to bounds-check an access,
// and a verified program's every access lies below its footprint, so a
// CCM covering the footprint behaves like any larger one.
//
// Cancelled runs are never stored. When full, the oldest entries are
// evicted first; an observation holding more trace values than the whole
// budget is not kept.
type Memo struct {
	maxEntries, maxValues int

	mu      sync.Mutex
	entries map[memoKey]*observation
	order   []memoKey // insertion order, oldest first
	values  int       // trace values retained across entries
}

// NewMemo returns an empty memo with the package's fixed bounds.
func NewMemo() *Memo { return newMemo(memoEntries, memoValues) }

func newMemo(maxEntries, maxValues int) *Memo {
	return &Memo{maxEntries: maxEntries, maxValues: maxValues, entries: map[memoKey]*observation{}}
}

// memoKey identifies one run up to everything the simulator can observe.
type memoKey struct {
	prog     [32]byte
	entry    string
	args     string // class byte and bits of each argument
	maxSteps int64
	maxDepth int
	ccmBytes int64 // min(CCMBytes, the program's CCM footprint)
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

// side is one program of a check: its resolved machine, and the memo
// key of its runs with the entry and arguments still blank.
type side struct {
	m            *sim.Machine
	memo         *Memo
	key          memoKey
	hits, misses int64
}

// memoKey is the key of a run of p, whose content digest is d, under o.
func (o Options) memoKey(d [32]byte, p *ir.Program) memoKey {
	return memoKey{
		prog:     d,
		maxSteps: o.MaxSteps,
		maxDepth: o.MaxDepth,
		ccmBytes: min(o.CCMBytes, maxCCMFootprint(p)),
	}
}

// observe runs entry on args, or serves the run from the memo.
func (s *side) observe(ctx context.Context, entry string, args []sim.Value) (*observation, error) {
	if s.memo == nil {
		return observe(ctx, s.m, entry, args)
	}
	k := s.key
	k.entry, k.args = entry, argKey(args)
	if o, ok := s.memo.get(k); ok {
		s.hits++
		return o, nil
	}
	s.misses++
	o, err := observe(ctx, s.m, entry, args)
	if err != nil {
		return nil, err // cancelled or unrunnable: nothing to store
	}
	s.memo.put(k, o)
	return o, nil
}

func (m *Memo) get(k memoKey) (*observation, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	o, ok := m.entries[k]
	return o, ok
}

// put stores o under k, evicting the oldest entries until both budgets
// hold. The observation is shared read-only with every later hit.
func (m *Memo) put(k memoKey, o *observation) {
	n := len(o.out)
	if n > m.maxValues {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.entries[k]; ok {
		return // a concurrent check stored the same run
	}
	for len(m.entries) >= m.maxEntries || m.values+n > m.maxValues {
		old := m.order[0]
		m.order = m.order[1:]
		m.values -= len(m.entries[old].out)
		delete(m.entries, old)
	}
	m.entries[k] = o
	m.order = append(m.order, k)
	m.values += n
}
