package pipeline

import (
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"sort"

	"ccmem/internal/ir"
)

// Artifact kinds namespace the persistent tiers: an entry of one kind can
// never be decoded as another, even if a key collision were engineered,
// because the kind is stored in the verified entry header and checked on
// read. The values are part of the on-disk format — append, never
// renumber.
//
// Only whole programs persist, as kind 6. Kinds 1-3 were the JSON
// payloads of earlier releases, and kinds 4 and 5 the codec v2 front and
// back artifacts, which now live in the memory tier alone; all five are
// reserved and never reused. An entry of a reserved kind under a key this
// release looks up reads as a miss and is quarantined, so the recompile
// can store its replacement under the same key.
const diskKindProgramV2 uint32 = 6

// Codec v2: the binary payload format of diskKindProgramV2, and the one
// encoding of a function: every digest and cache key (hash.go) is
// SHA-256 over the same bytes.
//
// Design rules:
//
//   - Deterministic: one artifact value has exactly one encoding. Field
//     order is fixed, map-shaped data is emitted sorted by key, and the
//     decoder rejects any non-canonical input (unsorted reports, trailing
//     bytes), so decode∘encode and encode∘decode are both identities on
//     the accepted sets. The determinism matrix relies on cache bytes
//     being a pure function of the artifact.
//   - Total for floats: FImm travels as its IEEE-754 bit pattern
//     (math.Float64bits), so NaN immediates — which encoding/json cannot
//     carry — round-trip exactly, payload bits included.
//   - Hostile-input safe: every read is bounds-checked, every element
//     count is validated against the bytes remaining before allocation,
//     and no decode path panics. The disk entry checksum already rejects
//     bit rot; this layer must additionally survive a checksum-consistent
//     payload from a buggy or foreign writer.
//
// All integers are little-endian and fixed-width: lengths and register
// numbers are uint32 (registers in two's complement, so NoReg = -1 is
// 0xFFFFFFFF), wide counters are 64-bit. Every payload starts with a
// single format byte, codecV2Version, giving future revisions an in-band
// escape without burning another disk kind.
const codecV2Version = 1

// ---- encoder ----

// bw is an append-only buffer writer. Encoding cannot fail: every value
// the pipeline produces is representable (that is the point of v2). A
// hashing writer (hash.go's newHashWriter) carries h and hands its bytes
// to it as it goes, so it stages at most hashChunk bytes plus one list
// element, however large the function it encodes.
type bw struct {
	b []byte
	h hash.Hash
}

// spill hands a hashing writer's staged bytes to its hash once they
// reach hashChunk. The encoders call it after each element of a list.
func (w *bw) spill() {
	if w.h != nil && len(w.b) >= hashChunk {
		w.h.Write(w.b)
		w.b = w.b[:0]
	}
}

func (w *bw) u8(v uint8) { w.b = append(w.b, v) }

func (w *bw) u32(v uint32) {
	w.b = binary.LittleEndian.AppendUint32(w.b, v)
}

func (w *bw) u64(v uint64) {
	w.b = binary.LittleEndian.AppendUint64(w.b, v)
}

func (w *bw) i64(v int64) { w.u64(uint64(v)) }

func (w *bw) f64(v float64) { w.u64(math.Float64bits(v)) }

func (w *bw) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

func (w *bw) str(s string) {
	w.u32(uint32(len(s)))
	w.b = append(w.b, s...)
}

func (w *bw) reg(r ir.Reg) { w.u32(uint32(int32(r))) }

func (w *bw) fn(f *ir.Func) {
	w.str(f.Name)
	w.u32(uint32(len(f.Params)))
	for _, p := range f.Params {
		w.reg(p)
	}
	w.spill()
	w.u8(uint8(f.RetClass))
	w.u32(uint32(len(f.Regs)))
	for _, ri := range f.Regs {
		w.u8(uint8(ri.Class))
		w.str(ri.Name)
		w.spill()
	}
	w.bool(f.Allocated)
	w.u32(uint32(f.NumInt))
	w.u32(uint32(f.NumFloat))
	w.i64(f.FrameBytes)
	w.i64(f.CCMBytes)
	w.u32(uint32(len(f.Blocks)))
	for _, b := range f.Blocks {
		w.str(b.Name)
		w.u32(uint32(len(b.Instrs)))
		w.spill()
		for i := range b.Instrs {
			in := &b.Instrs[i]
			w.u8(uint8(in.Op))
			w.reg(in.Dst)
			w.u32(uint32(len(in.Args)))
			for _, a := range in.Args {
				w.reg(a)
			}
			w.i64(in.Imm)
			w.f64(in.FImm)
			w.str(in.Sym)
			w.str(in.Then)
			w.str(in.Else)
			w.spill()
		}
	}
}

func (w *bw) report(fr *FuncReport) {
	w.i64(fr.SpillBytesNaive)
	w.i64(fr.SpillBytesCompacted)
	w.i64(fr.CCMBytes)
	w.i64(int64(fr.SpilledRanges))
	w.i64(int64(fr.PromotedWebs))
	w.i64(int64(fr.SpillWebs))
	w.i64(int64(fr.Instrs))
	w.bool(fr.FrontCacheHit)
	w.bool(fr.BackCacheHit)
	w.i64(int64(fr.Attempts))
	w.str(fr.Degraded)
	w.str(fr.FailedPass)
	w.str(fr.Error)
}

// encodeProgramV2 renders a program artifact for the persistent tiers.
// Encoding is total: every value the pipeline produces is representable,
// NaN float immediates included.
func encodeProgramV2(a *programArtifact) []byte {
	w := &bw{}
	w.u8(codecV2Version)
	w.u32(uint32(len(a.funcs)))
	for _, f := range a.funcs {
		w.fn(f)
	}
	names := make([]string, 0, len(a.perFunc))
	for name := range a.perFunc {
		names = append(names, name)
	}
	sort.Strings(names)
	w.u32(uint32(len(names)))
	for _, name := range names {
		w.str(name)
		fr := a.perFunc[name]
		w.report(&fr)
	}
	return w.b
}

// ---- decoder ----

// br is a bounds-checked buffer reader with a sticky error: the first
// read that fails records err, naming its byte offset, and empties the
// input, so every later read fails as well, returns a zero value and
// leaves err alone. A decoder reads straight through and checks err
// only where a value read so far must be trusted. A count read after a
// failure is zero, so past a failure a decoder allocates at most the
// elements of counts already admitted, each empty.
type br struct {
	b    []byte // the input not yet read
	size int    // the whole input's length
	err  error
}

func errV2(off int, format string, args ...any) error {
	return fmt.Errorf("pipeline: codec v2 at byte %d: %s", off, fmt.Sprintf(format, args...))
}

// off is the offset of the next byte to read.
func (r *br) off() int { return r.size - len(r.b) }

// fail records the first failure, at byte off, and empties the input.
func (r *br) fail(off int, format string, args ...any) {
	if r.err == nil {
		r.err = errV2(off, format, args...)
	}
	r.b = nil
}

// short fails a read of an n-byte integer past the end of the input. It
// stays out of line so that u8, u32 and u64, the reads every field goes
// through, fit the compiler's inlining budget: each costs 80 of 80 under
// Go 1.24 (go build -gcflags=-m=2), so a wrapper around one does not fit,
// and the decoders convert what they read in place.
//
//go:noinline
func (r *br) short(n int) { r.fail(r.off(), "truncated u%d", 8*n) }

func (r *br) u8() (v uint8) {
	if len(r.b) >= 1 {
		v, r.b = r.b[0], r.b[1:]
	} else {
		r.short(1)
	}
	return v
}

func (r *br) u32() (v uint32) {
	if len(r.b) >= 4 {
		v, r.b = binary.LittleEndian.Uint32(r.b), r.b[4:]
	} else {
		r.short(4)
	}
	return v
}

func (r *br) u64() (v uint64) {
	if len(r.b) >= 8 {
		v, r.b = binary.LittleEndian.Uint64(r.b), r.b[8:]
	} else {
		r.short(8)
	}
	return v
}

// bool accepts canonical booleans only: reading 2..255 as true would
// give one artifact multiple encodings.
func (r *br) bool() bool {
	v := r.u8()
	if v > 1 {
		r.fail(r.off()-1, "non-canonical bool %d", v)
	}
	return v == 1
}

func (r *br) str() string {
	n := r.u32()
	if int64(n) > int64(len(r.b)) {
		r.fail(r.off(), "string length %d exceeds %d remaining bytes", n, len(r.b))
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// count reads an element count and validates it against the bytes left,
// given each element's minimum encoded size, so a hostile length prefix
// cannot drive a giant allocation.
func (r *br) count(minElemSize int) int {
	n := r.u32()
	if int64(n)*int64(minElemSize) > int64(len(r.b)) {
		r.fail(r.off(), "count %d exceeds remaining input", n)
		return 0
	}
	return int(n)
}

// Minimum encoded sizes used for count validation.
const (
	minRegInfoV2 = 1 + 4 // class + empty name
	minInstrV2   = 1 + 4 + 4 + 8 + 8 + 4 + 4 + 4
	minBlockV2   = 4 + 4 // empty name + instr count
	minFuncV2    = 4 + 4 + 1 + 4 + 1 + 4 + 4 + 8 + 8 + 4
	minReportV2  = 7*8 + 2 + 8 + 3*4
)

func (r *br) fn() *ir.Func {
	f := &ir.Func{Name: r.str()}
	if n := r.count(4); n > 0 {
		f.Params = make([]ir.Reg, n)
		for i := range f.Params {
			f.Params[i] = ir.Reg(int32(r.u32()))
		}
	}
	f.RetClass = ir.Class(r.u8())
	if n := r.count(minRegInfoV2); n > 0 {
		f.Regs = make([]ir.RegInfo, n)
		for i := range f.Regs {
			f.Regs[i].Class = ir.Class(r.u8())
			f.Regs[i].Name = r.str()
		}
	}
	f.Allocated = r.bool()
	f.NumInt = int(r.u32())
	f.NumFloat = int(r.u32())
	f.FrameBytes = int64(r.u64())
	f.CCMBytes = int64(r.u64())
	if n := r.count(minBlockV2); n > 0 {
		f.Blocks = make([]*ir.Block, n)
		for i := range f.Blocks {
			f.Blocks[i] = r.block()
		}
	}
	return f
}

func (r *br) block() *ir.Block {
	b := &ir.Block{Name: r.str()}
	if n := r.count(minInstrV2); n > 0 {
		b.Instrs = make([]ir.Instr, n)
		for i := range b.Instrs {
			in := &b.Instrs[i]
			in.Op = ir.Op(r.u8())
			in.Dst = ir.Reg(int32(r.u32()))
			if na := r.count(4); na > 0 {
				in.Args = make([]ir.Reg, na)
				for j := range in.Args {
					in.Args[j] = ir.Reg(int32(r.u32()))
				}
			}
			in.Imm = int64(r.u64())
			in.FImm = math.Float64frombits(r.u64())
			in.Sym = r.str()
			in.Then = r.str()
			in.Else = r.str()
		}
	}
	return b
}

func (r *br) report() (fr FuncReport) {
	fr.SpillBytesNaive = int64(r.u64())
	fr.SpillBytesCompacted = int64(r.u64())
	fr.CCMBytes = int64(r.u64())
	fr.SpilledRanges = int(r.u64())
	fr.PromotedWebs = int(r.u64())
	fr.SpillWebs = int(r.u64())
	fr.Instrs = int(r.u64())
	fr.FrontCacheHit = r.bool()
	fr.BackCacheHit = r.bool()
	fr.Attempts = int(r.u64())
	fr.Degraded = r.str()
	fr.FailedPass = r.str()
	fr.Error = r.str()
	return fr
}

// decodeProgramV2 parses a checksum-verified payload back into a program
// artifact. The checksum guarantees the bytes are what a writer produced,
// not that the writer was sane, so decode checks bounds, shape and
// canonicity, and a payload that fails is an error, which the caller
// turns into (miss, quarantine). Decode does not verify the functions
// (nor is a hit re-verified): the simulator refuses an operand outside
// its function's register table (sim.New). Validation is all-or-nothing:
// nothing in the decoded value is mutated (block renumbering) until
// every function and the report map have been checked, so an error never
// leaves a half-canonicalized artifact behind.
func decodeProgramV2(payload []byte) (*programArtifact, error) {
	r := &br{b: payload, size: len(payload)}
	if v := r.u8(); v != codecV2Version {
		r.fail(0, "unknown format revision %d", v)
	}
	nf := r.count(minFuncV2)
	if r.err != nil {
		return nil, r.err
	}
	if nf == 0 {
		return nil, fmt.Errorf("pipeline: disk program artifact has no functions")
	}
	funcs := make([]*ir.Func, nf)
	byName := make(map[string]bool, nf)
	for i := range funcs {
		f := r.fn()
		if r.err == nil && byName[f.Name] {
			return nil, fmt.Errorf("pipeline: disk program artifact repeats function %q", f.Name)
		}
		byName[f.Name] = true
		funcs[i] = f
	}
	nr := r.count(minReportV2 + 4)
	perFunc := make(map[string]FuncReport, nr)
	prev := ""
	for i := 0; i < nr; i++ {
		name := r.str()
		// Strictly ascending names: canonical order, no duplicates.
		if r.err == nil && i > 0 && name <= prev {
			return nil, errV2(r.off(), "report names out of canonical order (%q after %q)", name, prev)
		}
		prev = name
		perFunc[name] = r.report()
	}
	// A canonical payload is consumed exactly.
	if len(r.b) != 0 {
		r.fail(r.off(), "%d trailing bytes", len(r.b))
	}
	if r.err != nil {
		return nil, r.err
	}
	for _, f := range funcs {
		if f.Name == "" || len(f.Blocks) == 0 {
			return nil, fmt.Errorf("pipeline: disk artifact function %q is hollow", f.Name)
		}
	}
	if err := checkPerFunc(funcs, perFunc); err != nil {
		return nil, err
	}
	for _, f := range funcs {
		f.Renumber()
	}
	return &programArtifact{funcs: funcs, perFunc: perFunc}, nil
}

// checkPerFunc rejects a program artifact whose report map disagrees with
// its function list. The writer records exactly one report per function,
// so any divergence — a missing report, or a report for a function that
// is not in the artifact — means the payload did not come from a sane
// writer and must be quarantined like any other malformed entry rather
// than served with silently wrong per-function accounting.
func checkPerFunc(funcs []*ir.Func, perFunc map[string]FuncReport) error {
	if len(perFunc) != len(funcs) {
		return fmt.Errorf("pipeline: disk program artifact has %d reports for %d functions",
			len(perFunc), len(funcs))
	}
	for _, f := range funcs {
		if _, ok := perFunc[f.Name]; !ok {
			return fmt.Errorf("pipeline: disk program artifact is missing the report for %q", f.Name)
		}
	}
	return nil
}
