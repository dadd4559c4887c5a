// Package ir defines the ILOC-style intermediate representation used
// throughout the reproduction: a low-level, three-address code over two
// register classes (integer and floating-point), with explicit spill and
// CCM-spill opcodes, organized into basic blocks and functions.
//
// The representation mirrors the ILOC of the Rice Massively Scalar Compiler
// Project that the paper's experiments were run on (Briggs, "The massively
// scalar compiler project", 1994): virtual registers are unbounded before
// allocation, memory is byte-addressed with 8-byte words, and spill code is
// visible as distinct opcodes so that post-pass tools can find and rewrite
// it — exactly what the paper's post-pass CCM allocator requires.
package ir

import (
	"fmt"
	"sync/atomic"
)

// Reg names a register within a Func. Before allocation a Func may use any
// number of virtual registers; after allocation registers are the physical
// names 0..NumInt-1 (integer) and the following NumFloat names (float).
type Reg int32

// NoReg marks the absence of a register (e.g. a call with no result).
const NoReg Reg = -1

// MaxRegs bounds register numbers: the parser rejects a register numbered
// MaxRegs or above, because a function's register table grows to the
// largest number it names, and allocated code names registers up to
// IntRegs+FloatRegs, so a compile's register counts must sum to at most
// MaxRegs for its output to parse back.
const MaxRegs = 1 << 16

// WordBytes is the size of the machine word; every register and memory
// slot holds one word.
const WordBytes = 8

// RegInfo describes one register of a Func.
type RegInfo struct {
	Class Class
	Name  string // diagnostic name; not required to be unique
}

// Instr is one ILOC instruction. The meaning of the fields depends on Op:
//
//   - Dst: result register, or NoReg.
//   - Args: operand registers (fixed arity for most ops; variable for
//     call/ret/phi).
//   - Imm: integer immediate — the constant of loadi, the byte offset of
//     loadai/storeai/addr, the frame offset of spill/restore, the CCM
//     offset of ccmspill/ccmrestore.
//   - FImm: the constant of loadf.
//   - Sym: callee name (call) or global name (addr).
//   - Then, Else: branch target labels (jmp uses Then; cbr uses both).
type Instr struct {
	Op   Op
	Dst  Reg
	Args []Reg
	Imm  int64
	FImm float64
	Sym  string
	Then string
	Else string
}

// Targets returns the labels this instruction may branch to.
func (in *Instr) Targets() []string {
	switch in.Op {
	case OpJmp:
		return []string{in.Then}
	case OpCBr:
		return []string{in.Then, in.Else}
	}
	return nil
}

// Uses returns the registers read by the instruction.
func (in *Instr) Uses() []Reg { return in.Args }

// Def returns the register written by the instruction, or NoReg.
func (in *Instr) Def() Reg { return in.Dst }

// Block is a basic block: a label and a non-empty instruction sequence
// whose final instruction is the unique terminator.
type Block struct {
	Name   string
	Index  int // position within Func.Blocks; maintained by Func.Renumber
	Instrs []Instr
}

// Term returns the block's terminator instruction.
func (b *Block) Term() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	last := &b.Instrs[len(b.Instrs)-1]
	if !last.Op.IsTerminator() {
		return nil
	}
	return last
}

// Func is a procedure.
type Func struct {
	Name     string
	Params   []Reg // parameter registers, bound by the caller in order
	RetClass Class // ClassNone for subroutines without a result
	Regs     []RegInfo
	Blocks   []*Block // Blocks[0] is the entry block

	// Post-allocation metadata.
	Allocated  bool  // true once physical registers are assigned
	NumInt     int   // physical integer registers (when Allocated)
	NumFloat   int   // physical float registers (when Allocated)
	FrameBytes int64 // activation-record size for heavyweight spills
	CCMBytes   int64 // bytes of CCM this function's own code touches

	// frozen marks a function as immutable shared state: the compile
	// cache freezes bodies on store and hands them out by reference, so
	// a consumer that wants to mutate must take a Clone first (Clone
	// always yields a mutable copy). The flag is unexported and so
	// invisible to encoding/json — frozen-ness is a property of the
	// in-memory sharing scheme, never of a serialized artifact.
	frozen bool

	// digest is the content digest a frozen function keeps once one is
	// computed (KeepDigest), and text the text it keeps once it is first
	// printed (String, Program.String); both stay nil on a mutable
	// function, whose content may still change. They make a Func unsafe
	// to copy by value, which vet's copylocks check enforces.
	digest atomic.Pointer[[32]byte]
	text   atomic.Pointer[string]
}

// Freeze marks f immutable. There is no Unfreeze: the only way back to a
// mutable function is Clone. Freezing a frozen function writes nothing,
// so every holder of a shared frozen function may freeze it again.
func (f *Func) Freeze() {
	if !f.frozen {
		f.frozen = true
	}
}

// Frozen reports whether f is shared immutable state that must be cloned
// before mutation.
func (f *Func) Frozen() bool { return f.frozen }

// KeptDigest returns the content digest frozen f keeps, and whether it
// keeps one. A mutable function never keeps one.
func (f *Func) KeptDigest() ([32]byte, bool) {
	if d := f.digest.Load(); d != nil {
		return *d, true
	}
	return [32]byte{}, false
}

// KeepDigest stores d as frozen f's content digest, so later digests of
// f read it instead of encoding f again. It does nothing when f is
// mutable or already keeps a digest. What the digest covers is the
// caller's: ir only keeps it, and a digest of the same content is the
// same whichever of several concurrent first callers stores it.
func (f *Func) KeepDigest(d [32]byte) {
	if f.frozen {
		kept := new([32]byte) // allocated here, so a mutable f costs nothing
		*kept = d
		f.digest.CompareAndSwap(nil, kept)
	}
}

// NewReg appends a fresh register of class c and returns its name.
func (f *Func) NewReg(c Class, name string) Reg {
	f.Regs = append(f.Regs, RegInfo{Class: c, Name: name})
	return Reg(len(f.Regs) - 1)
}

// RegClass returns the class of r.
func (f *Func) RegClass(r Reg) Class {
	if r < 0 || int(r) >= len(f.Regs) {
		return ClassNone
	}
	return f.Regs[r].Class
}

// BlockNamed returns the block with the given label, or nil.
func (f *Func) BlockNamed(name string) *Block {
	for _, b := range f.Blocks {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// Entry returns the entry block.
func (f *Func) Entry() *Block {
	if len(f.Blocks) == 0 {
		return nil
	}
	return f.Blocks[0]
}

// Renumber refreshes Block.Index after blocks are added or removed.
func (f *Func) Renumber() {
	for i, b := range f.Blocks {
		b.Index = i
	}
}

// NumInstrs returns the static instruction count of the function.
func (f *Func) NumInstrs() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// ForEachInstr calls fn for every instruction in block layout order.
func (f *Func) ForEachInstr(fn func(b *Block, i int, in *Instr)) {
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			fn(b, i, &b.Instrs[i])
		}
	}
}

// Global is a statically allocated region of main memory.
type Global struct {
	Name  string
	Words int      // size in 8-byte words
	Init  []uint64 // raw word initializers; len(Init) <= Words
}

// Bytes returns the global's size in bytes.
func (g *Global) Bytes() int64 { return int64(g.Words) * WordBytes }

// Program is a whole compilation unit: functions plus global data.
type Program struct {
	Funcs   []*Func
	Globals []*Global
}

// Func returns the function with the given name, or nil.
func (p *Program) Func(name string) *Func {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Global returns the global with the given name, or nil.
func (p *Program) Global(name string) *Global {
	for _, g := range p.Globals {
		if g.Name == name {
			return g
		}
	}
	return nil
}

// AddFunc appends f, rejecting duplicate names.
func (p *Program) AddFunc(f *Func) error {
	if p.Func(f.Name) != nil {
		return fmt.Errorf("ir: duplicate function %q", f.Name)
	}
	p.Funcs = append(p.Funcs, f)
	return nil
}

// AddGlobal appends g, rejecting duplicate names.
func (p *Program) AddGlobal(g *Global) error {
	if p.Global(g.Name) != nil {
		return fmt.Errorf("ir: duplicate global %q", g.Name)
	}
	p.Globals = append(p.Globals, g)
	return nil
}

// Clone deep-copies the program so that transformations can be compared
// against the original (the semantic-equality oracle relies on this).
func (p *Program) Clone() *Program {
	q := &Program{}
	for _, g := range p.Globals {
		ng := &Global{Name: g.Name, Words: g.Words, Init: append([]uint64(nil), g.Init...)}
		q.Globals = append(q.Globals, ng)
	}
	for _, f := range p.Funcs {
		q.Funcs = append(q.Funcs, f.Clone())
	}
	return q
}

// Clone deep-copies the function. The copy is always mutable, whatever
// the receiver's frozen state, and keeps no digest and no text: Clone is
// the copy-on-write point of the cache's sharing scheme.
func (f *Func) Clone() *Func {
	nf := &Func{
		Name:       f.Name,
		Params:     append([]Reg(nil), f.Params...),
		RetClass:   f.RetClass,
		Regs:       append([]RegInfo(nil), f.Regs...),
		Allocated:  f.Allocated,
		NumInt:     f.NumInt,
		NumFloat:   f.NumFloat,
		FrameBytes: f.FrameBytes,
		CCMBytes:   f.CCMBytes,
	}
	nf.Blocks = make([]*Block, len(f.Blocks))
	for bi, b := range f.Blocks {
		nb := &Block{Name: b.Name, Index: b.Index, Instrs: make([]Instr, len(b.Instrs))}
		// All argument slices of a block share one backing array instead
		// of one tiny allocation per instruction. The three-index
		// reslices cap each view exactly, so a later append to one
		// instruction's Args reallocates that slice rather than
		// clobbering its neighbor's storage.
		total := 0
		for i := range b.Instrs {
			total += len(b.Instrs[i].Args)
		}
		args := make([]Reg, 0, total)
		for i, in := range b.Instrs {
			if len(in.Args) > 0 {
				lo := len(args)
				args = append(args, in.Args...)
				in.Args = args[lo:len(args):len(args)]
			}
			nb.Instrs[i] = in
		}
		nf.Blocks[bi] = nb
	}
	return nf
}
