package pipeline

import (
	"encoding/binary"
	"fmt"
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

// Codec v2: the binary payload format of diskKindProgramV2.
//
// Design rules:
//
//   - Deterministic: one artifact value has exactly one encoding. Field
//     order is fixed (mirroring the canonical hash order of hash.go),
//     map-shaped data is emitted sorted by key, and the decoder rejects
//     any non-canonical input (unsorted reports, trailing bytes), so
//     decode∘encode and encode∘decode are both identities on the accepted
//     sets. The determinism matrix relies on cache bytes being a pure
//     function of the artifact.
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

// bw is a tiny append-only buffer writer. Encoding cannot fail: every
// value the pipeline produces is representable (that is the point of v2).
type bw struct {
	b []byte
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
	w.u8(uint8(f.RetClass))
	w.u32(uint32(len(f.Regs)))
	for _, ri := range f.Regs {
		w.u8(uint8(ri.Class))
		w.str(ri.Name)
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

// br is a bounds-checked buffer reader. Every method returns an error
// instead of panicking; errV2 builds them with position context.
type br struct {
	b   []byte
	off int
}

func errV2(off int, format string, args ...any) error {
	return fmt.Errorf("pipeline: codec v2 at byte %d: %s", off, fmt.Sprintf(format, args...))
}

func (r *br) remaining() int { return len(r.b) - r.off }

func (r *br) u8() (uint8, error) {
	if r.remaining() < 1 {
		return 0, errV2(r.off, "truncated u8")
	}
	v := r.b[r.off]
	r.off++
	return v, nil
}

func (r *br) u32() (uint32, error) {
	if r.remaining() < 4 {
		return 0, errV2(r.off, "truncated u32")
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v, nil
}

func (r *br) u64() (uint64, error) {
	if r.remaining() < 8 {
		return 0, errV2(r.off, "truncated u64")
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v, nil
}

func (r *br) i64() (int64, error) {
	v, err := r.u64()
	return int64(v), err
}

func (r *br) f64() (float64, error) {
	v, err := r.u64()
	return math.Float64frombits(v), err
}

func (r *br) bool() (bool, error) {
	v, err := r.u8()
	if err != nil {
		return false, err
	}
	// Canonical booleans only: accepting 2..255 as true would give one
	// artifact multiple encodings.
	switch v {
	case 0:
		return false, nil
	case 1:
		return true, nil
	}
	return false, errV2(r.off-1, "non-canonical bool %d", v)
}

func (r *br) str() (string, error) {
	n, err := r.u32()
	if err != nil {
		return "", err
	}
	if int64(n) > int64(r.remaining()) {
		return "", errV2(r.off, "string length %d exceeds %d remaining bytes", n, r.remaining())
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s, nil
}

func (r *br) reg() (ir.Reg, error) {
	v, err := r.u32()
	return ir.Reg(int32(v)), err
}

// count reads an element count and validates it against the bytes left,
// given each element's minimum encoded size, so a hostile length prefix
// cannot drive a giant allocation.
func (r *br) count(minElemSize int) (int, error) {
	n, err := r.u32()
	if err != nil {
		return 0, err
	}
	if int64(n)*int64(minElemSize) > int64(r.remaining()) {
		return 0, errV2(r.off, "count %d exceeds remaining input", n)
	}
	return int(n), nil
}

// Minimum encoded sizes used for count validation.
const (
	minRegInfoV2 = 1 + 4 // class + empty name
	minInstrV2   = 1 + 4 + 4 + 8 + 8 + 4 + 4 + 4
	minBlockV2   = 4 + 4 // empty name + instr count
	minFuncV2    = 4 + 4 + 1 + 4 + 1 + 4 + 4 + 8 + 8 + 4
	minReportV2  = 7*8 + 2 + 8 + 3*4
)

func (r *br) fn() (*ir.Func, error) {
	f := &ir.Func{}
	var err error
	if f.Name, err = r.str(); err != nil {
		return nil, err
	}
	np, err := r.count(4)
	if err != nil {
		return nil, err
	}
	if np > 0 {
		f.Params = make([]ir.Reg, np)
		for i := range f.Params {
			if f.Params[i], err = r.reg(); err != nil {
				return nil, err
			}
		}
	}
	rc, err := r.u8()
	if err != nil {
		return nil, err
	}
	f.RetClass = ir.Class(rc)
	nr, err := r.count(minRegInfoV2)
	if err != nil {
		return nil, err
	}
	if nr > 0 {
		f.Regs = make([]ir.RegInfo, nr)
		for i := range f.Regs {
			cl, err := r.u8()
			if err != nil {
				return nil, err
			}
			f.Regs[i].Class = ir.Class(cl)
			if f.Regs[i].Name, err = r.str(); err != nil {
				return nil, err
			}
		}
	}
	if f.Allocated, err = r.bool(); err != nil {
		return nil, err
	}
	ni, err := r.u32()
	if err != nil {
		return nil, err
	}
	f.NumInt = int(ni)
	nf, err := r.u32()
	if err != nil {
		return nil, err
	}
	f.NumFloat = int(nf)
	if f.FrameBytes, err = r.i64(); err != nil {
		return nil, err
	}
	if f.CCMBytes, err = r.i64(); err != nil {
		return nil, err
	}
	nb, err := r.count(minBlockV2)
	if err != nil {
		return nil, err
	}
	if nb > 0 {
		f.Blocks = make([]*ir.Block, nb)
	}
	for bi := 0; bi < nb; bi++ {
		b := &ir.Block{}
		if b.Name, err = r.str(); err != nil {
			return nil, err
		}
		nin, err := r.count(minInstrV2)
		if err != nil {
			return nil, err
		}
		if nin > 0 {
			b.Instrs = make([]ir.Instr, nin)
		}
		for ii := 0; ii < nin; ii++ {
			in := &b.Instrs[ii]
			op, err := r.u8()
			if err != nil {
				return nil, err
			}
			in.Op = ir.Op(op)
			if in.Dst, err = r.reg(); err != nil {
				return nil, err
			}
			na, err := r.count(4)
			if err != nil {
				return nil, err
			}
			if na > 0 {
				in.Args = make([]ir.Reg, na)
				for ai := range in.Args {
					if in.Args[ai], err = r.reg(); err != nil {
						return nil, err
					}
				}
			}
			if in.Imm, err = r.i64(); err != nil {
				return nil, err
			}
			if in.FImm, err = r.f64(); err != nil {
				return nil, err
			}
			if in.Sym, err = r.str(); err != nil {
				return nil, err
			}
			if in.Then, err = r.str(); err != nil {
				return nil, err
			}
			if in.Else, err = r.str(); err != nil {
				return nil, err
			}
		}
		f.Blocks[bi] = b
	}
	return f, nil
}

func (r *br) report() (FuncReport, error) {
	var fr FuncReport
	var err error
	if fr.SpillBytesNaive, err = r.i64(); err != nil {
		return fr, err
	}
	if fr.SpillBytesCompacted, err = r.i64(); err != nil {
		return fr, err
	}
	if fr.CCMBytes, err = r.i64(); err != nil {
		return fr, err
	}
	ints := []*int{&fr.SpilledRanges, &fr.PromotedWebs, &fr.SpillWebs, &fr.Instrs}
	for _, p := range ints {
		v, err := r.i64()
		if err != nil {
			return fr, err
		}
		*p = int(v)
	}
	if fr.FrontCacheHit, err = r.bool(); err != nil {
		return fr, err
	}
	if fr.BackCacheHit, err = r.bool(); err != nil {
		return fr, err
	}
	att, err := r.i64()
	if err != nil {
		return fr, err
	}
	fr.Attempts = int(att)
	if fr.Degraded, err = r.str(); err != nil {
		return fr, err
	}
	if fr.FailedPass, err = r.str(); err != nil {
		return fr, err
	}
	if fr.Error, err = r.str(); err != nil {
		return fr, err
	}
	return fr, nil
}

func (r *br) version() error {
	v, err := r.u8()
	if err != nil {
		return err
	}
	if v != codecV2Version {
		return errV2(0, "unknown format revision %d", v)
	}
	return nil
}

// done rejects trailing bytes: a canonical payload is consumed exactly.
func (r *br) done() error {
	if r.remaining() != 0 {
		return errV2(r.off, "%d trailing bytes", r.remaining())
	}
	return nil
}

// decodeProgramV2 parses a checksum-verified payload back into a program
// artifact. The checksum guarantees the bytes are what a writer produced,
// not that the writer was sane, so the decoded shape is still validated:
// a malformed payload is an error, which the caller turns into (miss,
// quarantine) — never a wrong artifact. Validation is all-or-nothing:
// nothing in the decoded value is mutated (block renumbering) until every
// function and cross-field invariant has been checked, so an error never
// leaves a half-canonicalized artifact behind.
func decodeProgramV2(payload []byte) (*programArtifact, error) {
	r := &br{b: payload}
	if err := r.version(); err != nil {
		return nil, err
	}
	nf, err := r.count(minFuncV2)
	if err != nil {
		return nil, err
	}
	if nf == 0 {
		return nil, fmt.Errorf("pipeline: disk program artifact has no functions")
	}
	funcs := make([]*ir.Func, nf)
	byName := make(map[string]bool, nf)
	for i := range funcs {
		if funcs[i], err = r.fn(); err != nil {
			return nil, err
		}
		if byName[funcs[i].Name] {
			return nil, fmt.Errorf("pipeline: disk program artifact repeats function %q", funcs[i].Name)
		}
		byName[funcs[i].Name] = true
	}
	nr, err := r.count(minReportV2 + 4)
	if err != nil {
		return nil, err
	}
	perFunc := make(map[string]FuncReport, nr)
	prev := ""
	for i := 0; i < nr; i++ {
		name, err := r.str()
		if err != nil {
			return nil, err
		}
		// Strictly ascending names: canonical order, no duplicates.
		if i > 0 && name <= prev {
			return nil, errV2(r.off, "report names out of canonical order (%q after %q)", name, prev)
		}
		prev = name
		fr, err := r.report()
		if err != nil {
			return nil, err
		}
		perFunc[name] = fr
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	// Validation is all-or-nothing: no function is touched (Renumber)
	// until every function and the report map have been checked.
	for _, f := range funcs {
		if err := validateFunc(f); err != nil {
			return nil, err
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

// validateFunc rejects structurally hollow decoded functions. It never
// mutates f: callers renumber blocks (the one piece of derived state in
// the IR) only after every sibling of the artifact has validated.
func validateFunc(f *ir.Func) error {
	if f == nil {
		return fmt.Errorf("pipeline: disk artifact has a nil function")
	}
	if f.Name == "" || len(f.Blocks) == 0 {
		return fmt.Errorf("pipeline: disk artifact function %q is hollow", f.Name)
	}
	for _, b := range f.Blocks {
		if b == nil {
			return fmt.Errorf("pipeline: disk artifact function %q has a nil block", f.Name)
		}
	}
	return nil
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
