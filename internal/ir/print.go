package ir

import (
	"strconv"
	"unsafe"
)

// The printer appends into one byte slice, which Program.String sizes
// once for the whole program; RegName, FormatInstr and Func.String wrap
// the same appenders. A frozen function is printed once: it keeps the
// text it first prints as, and later prints of it, the programs it is
// part of included, copy that text.

// RegName renders a register in the textual form used by the parser:
// r<N> for integer registers, f<N> for floats. The index space is shared,
// so r4 and f4 never coexist in one function.
func (f *Func) RegName(r Reg) string { return string(f.appendReg(nil, r)) }

func (f *Func) appendReg(b []byte, r Reg) []byte {
	if r == NoReg {
		return append(b, '_')
	}
	if f.RegClass(r) == ClassFloat {
		b = append(b, 'f')
	} else {
		b = append(b, 'r')
	}
	return strconv.AppendInt(b, int64(r), 10)
}

// appendRegs appends regs separated by ", ".
func (f *Func) appendRegs(b []byte, regs []Reg) []byte {
	for i, r := range regs {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = f.appendReg(b, r)
	}
	return b
}

// FormatInstr renders one instruction in parseable form.
func (f *Func) FormatInstr(in *Instr) string { return string(f.appendInstr(nil, in)) }

func (f *Func) appendInstr(b []byte, in *Instr) []byte {
	if in.Dst != NoReg {
		b = append(f.appendReg(b, in.Dst), " = "...)
	}
	b = append(b, in.Op.String()...)
	switch in.Op {
	case OpNop:
	case OpLoadI, OpRestore, OpFRestore, OpCCMRestore, OpCCMFRestore:
		b = strconv.AppendInt(append(b, ' '), in.Imm, 10)
	case OpLoadF:
		b = strconv.AppendFloat(append(b, ' '), in.FImm, 'g', -1, 64)
	case OpLoadAI, OpFLoadAI, OpSpill, OpFSpill, OpCCMSpill, OpCCMFSpill:
		b = f.appendReg(append(b, ' '), in.Args[0])
		b = strconv.AppendInt(append(b, ", "...), in.Imm, 10)
	case OpStoreAI, OpFStoreAI:
		b = f.appendReg(append(b, ' '), in.Args[0])
		b = f.appendReg(append(b, ", "...), in.Args[1])
		b = strconv.AppendInt(append(b, ", "...), in.Imm, 10)
	case OpAddr:
		b = append(append(b, ' '), in.Sym...)
		b = strconv.AppendInt(append(b, ", "...), in.Imm, 10)
	case OpJmp:
		b = append(append(b, ' '), in.Then...)
	case OpCBr:
		b = f.appendReg(append(b, ' '), in.Args[0])
		b = append(append(b, ", "...), in.Then...)
		b = append(append(b, ", "...), in.Else...)
	case OpCall:
		b = append(append(b, ' '), in.Sym...)
		b = append(f.appendRegs(append(b, '('), in.Args), ')')
	case OpRet:
		if len(in.Args) == 1 {
			b = f.appendReg(append(b, ' '), in.Args[0])
		}
	case OpPhi:
		b = f.appendRegs(append(b, ' '), in.Args)
	default:
		// Uniform fixed-arity ops: "op a[, b]".
		if len(in.Args) > 0 {
			b = f.appendRegs(append(b, ' '), in.Args)
		}
	}
	return b
}

// String renders the function in the textual ILOC form accepted by Parse.
// A frozen function keeps the text its first call prints; a mutable one
// is printed on every call, so a rewrite shows in its next print.
func (f *Func) String() string {
	if t := f.text.Load(); t != nil {
		return *t
	}
	// A copy, so that a kept text holds no room the estimate left over.
	t := string(f.appendFunc(make([]byte, 0, f.printSize())))
	if f.frozen {
		// Concurrent first callers print the same bytes, and all return
		// the one text kept.
		f.text.CompareAndSwap(nil, &t)
		return *f.text.Load()
	}
	return t
}

func (f *Func) appendFunc(b []byte) []byte {
	b = append(append(b, "func "...), f.Name...)
	b = append(f.appendRegs(append(b, '('), f.Params), ')')
	switch f.RetClass {
	case ClassInt:
		b = append(b, " int"...)
	case ClassFloat:
		b = append(b, " float"...)
	}
	b = append(b, " {\n"...)
	for _, blk := range f.Blocks {
		b = append(append(b, blk.Name...), ":\n"...)
		for i := range blk.Instrs {
			b = append(f.appendInstr(append(b, '\t'), &blk.Instrs[i]), '\n')
		}
	}
	return append(b, "}\n"...)
}

// printSize overestimates the bytes f prints as, so that printing
// rarely grows its buffer: it allows 32 bytes an instruction, where the
// suite's compiled functions print 16 to 43, headers and labels included.
func (f *Func) printSize() int {
	n := len(f.Name) + 32 + 8*len(f.Params)
	for _, blk := range f.Blocks {
		n += len(blk.Name) + 2 + 32*len(blk.Instrs)
	}
	return n
}

// String renders the whole program in parseable form. Its frozen
// functions are copied from the texts they keep, so reprinting a printed
// frozen program allocates its result alone.
func (p *Program) String() string {
	n := 1
	for _, g := range p.Globals {
		n += len(g.Name) + 32 + 17*len(g.Init) // a hex word prints in at most 16 digits
	}
	for _, f := range p.Funcs {
		if f.frozen {
			n += len(f.String()) + 1
		} else {
			n += f.printSize() + 1
		}
	}
	b := make([]byte, 0, n)
	for _, g := range p.Globals {
		b = append(append(b, "global "...), g.Name...)
		b = strconv.AppendInt(append(b, ' '), int64(g.Words), 10)
		if len(g.Init) > 0 {
			b = append(b, " = x"...)
			for _, w := range g.Init {
				b = strconv.AppendUint(append(b, ' '), w, 16)
			}
		}
		b = append(b, '\n')
	}
	if len(p.Globals) > 0 {
		b = append(b, '\n')
	}
	for i, f := range p.Funcs {
		if i > 0 {
			b = append(b, '\n')
		}
		if f.frozen {
			b = append(b, f.String()...)
		} else {
			b = f.appendFunc(b)
		}
	}
	// The string takes the buffer over rather than copying it: nothing
	// writes to b again.
	return unsafe.String(unsafe.SliceData(b), len(b))
}
