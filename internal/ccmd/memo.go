package ccmd

import (
	"container/list"
	"sync"
	"unsafe"

	"ccmem/internal/ir"
	"ccmem/internal/obs"
)

// parseMemoBytes bounds the bytes the parse memo holds: each entry is
// charged its text, which it keeps as its key, plus the parsed program's
// footprint. Serve-zipf's 83 inputs are 1.43 MB of text and charge
// 9.6 MB in all.
const parseMemoBytes = 16 << 20

// parseMemo keeps the programs that request texts parsed and verified
// to, keyed by the text itself, so a repeated text costs a map lookup
// instead of a parse and a verify. It evicts least recently used once
// the bytes it holds pass maxBytes. A program's functions are frozen
// before it is published, so each keeps its digest for every compile of
// it; requests share the program because no request writes it (the
// driver never writes its input, and the simulator only reads).
type parseMemo struct {
	maxBytes int64 // parseMemoBytes; tests shrink it
	reg      *obs.Registry

	mu      sync.Mutex
	bytes   int64                    // the entries' charges
	lru     list.List                // of *memoEntry, most recently used first
	entries map[string]*list.Element // by text
}

type memoEntry struct {
	text string
	prog *ir.Program
	size int64 // its charge against the bound
}

func newParseMemo(reg *obs.Registry) *parseMemo {
	return &parseMemo{maxBytes: parseMemoBytes, reg: reg, entries: map[string]*list.Element{}}
}

// get returns the program text parsed to, and marks it most recently
// used.
func (m *parseMemo) get(text string) (*ir.Program, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[text]
	if !ok {
		return nil, false
	}
	m.lru.MoveToFront(e)
	return e.Value.(*memoEntry).prog, true
}

// put freezes p, the verified program text parsed to, and keeps it,
// evicting the least recently used entries over the bound. An entry
// whose charge exceeds the bound is not kept, and a text a concurrent
// request kept first stays as it is.
func (m *parseMemo) put(text string, p *ir.Program) {
	size := int64(len(text)) + footprint(p)
	if size > m.maxBytes {
		return
	}
	for _, f := range p.Funcs {
		f.Freeze()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.entries[text]; ok {
		return
	}
	m.entries[text] = m.lru.PushFront(&memoEntry{text: text, prog: p, size: size})
	m.bytes += size
	for m.bytes > m.maxBytes {
		old := m.lru.Remove(m.lru.Back()).(*memoEntry)
		delete(m.entries, old.text)
		m.bytes -= old.size
		m.reg.Counter("ccmd.parse_memo.evictions").Inc()
	}
}

// footprint is the bytes a memo entry keeps beyond its text: the entry
// itself, the parsed program's structs, slices and register tables, each
// at its capacity, and the digest each function may come to keep. The
// names the program holds are copies of substrings of the text, each
// made once, so the text's own charge covers them. A register table is
// as long as the highest register its function names, so a short text
// can parse to a large table; the charge counts it.
func footprint(p *ir.Program) int64 {
	const (
		ptr    = int64(unsafe.Sizeof(p))
		reg    = int64(unsafe.Sizeof(ir.Reg(0)))
		digest = int64(unsafe.Sizeof([32]byte{}))
	)
	n := int64(unsafe.Sizeof(memoEntry{})+unsafe.Sizeof(list.Element{})+unsafe.Sizeof(*p)) +
		int64(cap(p.Funcs)+cap(p.Globals))*ptr
	for _, g := range p.Globals {
		n += int64(unsafe.Sizeof(*g)) + int64(cap(g.Init))*int64(unsafe.Sizeof(g.Init[0]))
	}
	for _, f := range p.Funcs {
		n += int64(unsafe.Sizeof(*f)) + digest + int64(cap(f.Params))*reg +
			int64(cap(f.Regs))*int64(unsafe.Sizeof(ir.RegInfo{})) + int64(cap(f.Blocks))*ptr
		for _, b := range f.Blocks {
			n += int64(unsafe.Sizeof(*b)) + int64(cap(b.Instrs))*int64(unsafe.Sizeof(ir.Instr{}))
			for i := range b.Instrs {
				n += int64(cap(b.Instrs[i].Args)) * reg
			}
		}
	}
	return n
}
