package ir

import (
	"fmt"
)

// VerifyOptions control which structural rules Verify enforces.
type VerifyOptions struct {
	// AllowPhi permits OpPhi instructions (they appear only inside the SSA
	// passes; final code must be phi-free).
	AllowPhi bool
}

// VerifyProgram checks structural invariants for every function in p,
// resolving its calls and addr instructions against p's functions and
// globals by name, so it runs in time linear in the program.
func VerifyProgram(p *Program, opts VerifyOptions) error {
	n := &names{funcs: make(map[string]*Func, len(p.Funcs)), globals: make(map[string]*Global, len(p.Globals))}
	for _, g := range p.Globals {
		if n.globals[g.Name] != nil {
			return fmt.Errorf("ir: duplicate global %q", g.Name)
		}
		n.globals[g.Name] = g
		if g.Words < 0 {
			return fmt.Errorf("ir: global %q has negative size", g.Name)
		}
		if len(g.Init) > g.Words {
			return fmt.Errorf("ir: global %q: %d initializers for %d words", g.Name, len(g.Init), g.Words)
		}
	}
	for _, f := range p.Funcs {
		if n.funcs[f.Name] != nil {
			return fmt.Errorf("ir: duplicate function %q", f.Name)
		}
		n.funcs[f.Name] = f
	}
	for _, f := range p.Funcs {
		if err := verifyFunc(f, n, opts); err != nil {
			return err
		}
	}
	return nil
}

// names indexes a program's functions and globals by name.
type names struct {
	funcs   map[string]*Func
	globals map[string]*Global
}

// VerifyFunc checks one function on its own, with no program to resolve
// its calls and globals against (VerifyProgram resolves them).
func VerifyFunc(f *Func, opts VerifyOptions) error { return verifyFunc(f, nil, opts) }

// verifyFunc checks one function, and its cross-references against n
// unless n is nil.
func verifyFunc(f *Func, n *names, opts VerifyOptions) error {
	errf := func(format string, args ...any) error {
		return fmt.Errorf("ir: func %s: %s", f.Name, fmt.Sprintf(format, args...))
	}
	if len(f.Blocks) == 0 {
		return errf("no blocks")
	}
	if f.Allocated {
		if len(f.Regs) != f.NumInt+f.NumFloat {
			return errf("allocated function has %d regs, want %d int + %d float",
				len(f.Regs), f.NumInt, f.NumFloat)
		}
		for i, ri := range f.Regs {
			want := ClassInt
			if i >= f.NumInt {
				want = ClassFloat
			}
			if ri.Class != want {
				return errf("allocated reg %d has class %v, want %v", i, ri.Class, want)
			}
		}
		if f.FrameBytes < 0 || f.FrameBytes%WordBytes != 0 {
			return errf("bad frame size %d", f.FrameBytes)
		}
	}

	labels := map[string]*Block{}
	for _, b := range f.Blocks {
		if b.Name == "" {
			return errf("unnamed block")
		}
		if labels[b.Name] != nil {
			return errf("duplicate block label %q", b.Name)
		}
		labels[b.Name] = b
	}

	// The label describing a checked register ("mul arg 1", "param 0") is
	// carried as a regLabel value and rendered only when a check fails:
	// building it eagerly put a fmt.Sprintf on every argument of every
	// instruction, one of the hottest allocation sites of a cold compile.
	checkReg := func(b *Block, r Reg, want Class, what regLabel) error {
		if r == NoReg || int(r) >= len(f.Regs) {
			return errf("block %s: %s register %d out of range", b.Name, what, r)
		}
		got := f.Regs[r].Class
		if got == ClassNone {
			return errf("block %s: %s register %d has no class", b.Name, what, r)
		}
		if want != ClassNone && got != want {
			return errf("block %s: %s register %s has class %v, want %v",
				b.Name, what, f.RegName(r), got, want)
		}
		return nil
	}

	for pi, pr := range f.Params {
		if err := checkReg(f.Blocks[0], pr, ClassNone, regLabel{what: "param", idx: pi}); err != nil {
			return err
		}
		for pj := 0; pj < pi; pj++ {
			if f.Params[pj] == pr {
				return errf("duplicate parameter register %s", f.RegName(pr))
			}
		}
	}

	for _, b := range f.Blocks {
		if len(b.Instrs) == 0 {
			return errf("block %s is empty", b.Name)
		}
		sawNonPhi := false
		for i := range b.Instrs {
			in := &b.Instrs[i]
			last := i == len(b.Instrs)-1
			if in.Op.IsTerminator() != last {
				if last {
					return errf("block %s does not end with a terminator (ends with %s)", b.Name, in.Op)
				}
				return errf("block %s: terminator %s in mid-block position %d", b.Name, in.Op, i)
			}
			if in.Op == OpPhi {
				if !opts.AllowPhi {
					return errf("block %s: phi present but not allowed at this stage", b.Name)
				}
				if sawNonPhi {
					return errf("block %s: phi after non-phi instruction", b.Name)
				}
			} else {
				sawNonPhi = true
			}
			if err := verifyInstr(f, n, b, in, checkReg, errf); err != nil {
				return err
			}
		}
		term := b.Term()
		checkTarget := func(t string) error {
			if labels[t] == nil {
				return errf("block %s branches to unknown label %q", b.Name, t)
			}
			return nil
		}
		switch term.Op {
		case OpJmp:
			if err := checkTarget(term.Then); err != nil {
				return err
			}
		case OpCBr:
			if err := checkTarget(term.Then); err != nil {
				return err
			}
			if err := checkTarget(term.Else); err != nil {
				return err
			}
		}
	}
	return nil
}

// regLabel names a checked register position without allocating: the
// human-readable form ("mul arg 1", "call result") is composed in String,
// which runs only inside error formatting.
type regLabel struct {
	what  string
	op    Op
	hasOp bool
	idx   int // appended when >= 0
}

// plainLabel builds a label with no op prefix and no index.
func plainLabel(what string) regLabel { return regLabel{what: what, idx: -1} }

func (l regLabel) String() string {
	s := l.what
	if l.hasOp {
		s = l.op.String() + " " + s
	}
	if l.idx >= 0 {
		s = fmt.Sprintf("%s %d", s, l.idx)
	}
	return s
}

func verifyInstr(f *Func, n *names, b *Block, in *Instr,
	checkReg func(*Block, Reg, Class, regLabel) error,
	errf func(string, ...any) error) error {

	// Destination.
	switch in.Op {
	case OpCall:
		if in.Dst != NoReg {
			if err := checkReg(b, in.Dst, ClassNone, plainLabel("call result")); err != nil {
				return err
			}
		}
	case OpPhi:
		if in.Dst == NoReg {
			return errf("block %s: phi without destination", b.Name)
		}
		if err := checkReg(b, in.Dst, ClassNone, plainLabel("phi result")); err != nil {
			return err
		}
	default:
		want := in.Op.DstClass()
		if want == ClassNone {
			if in.Dst != NoReg {
				return errf("block %s: %s must not have a destination", b.Name, in.Op)
			}
		} else {
			if in.Dst == NoReg {
				return errf("block %s: %s requires a destination", b.Name, in.Op)
			}
			if err := checkReg(b, in.Dst, want, regLabel{what: "result", op: in.Op, hasOp: true, idx: -1}); err != nil {
				return err
			}
		}
	}

	// Arguments.
	switch in.Op {
	case OpCall:
		if n != nil {
			callee := n.funcs[in.Sym]
			if callee == nil {
				return errf("block %s: call to unknown function %q", b.Name, in.Sym)
			}
			if len(in.Args) != len(callee.Params) {
				return errf("block %s: call %s passes %d args, callee wants %d",
					b.Name, in.Sym, len(in.Args), len(callee.Params))
			}
			for i, a := range in.Args {
				want := callee.RegClass(callee.Params[i])
				if err := checkReg(b, a, want, regLabel{what: "call arg", idx: i}); err != nil {
					return err
				}
			}
			if in.Dst != NoReg {
				if callee.RetClass == ClassNone {
					return errf("block %s: call %s captures result of void function", b.Name, in.Sym)
				}
				if err := checkReg(b, in.Dst, callee.RetClass, plainLabel("call result")); err != nil {
					return err
				}
			}
		} else {
			for i, a := range in.Args {
				if err := checkReg(b, a, ClassNone, regLabel{what: "call arg", idx: i}); err != nil {
					return err
				}
			}
		}
	case OpRet:
		switch f.RetClass {
		case ClassNone:
			if len(in.Args) != 0 {
				return errf("block %s: ret with value in void function", b.Name)
			}
		default:
			if len(in.Args) != 1 {
				return errf("block %s: ret must return one value", b.Name)
			}
			if err := checkReg(b, in.Args[0], f.RetClass, plainLabel("ret value")); err != nil {
				return err
			}
		}
	case OpPhi:
		want := f.RegClass(in.Dst)
		for i, a := range in.Args {
			if err := checkReg(b, a, want, regLabel{what: "phi arg", idx: i}); err != nil {
				return err
			}
		}
	default:
		want := in.Op.NumArgs()
		if len(in.Args) != want {
			return errf("block %s: %s has %d operands, want %d", b.Name, in.Op, len(in.Args), want)
		}
		for i, a := range in.Args {
			if err := checkReg(b, a, in.Op.ArgClass(i), regLabel{what: "arg", op: in.Op, hasOp: true, idx: i}); err != nil {
				return err
			}
		}
	}

	// Immediates and symbols.
	switch in.Op {
	case OpAddr:
		if n != nil {
			g := n.globals[in.Sym]
			if g == nil {
				return errf("block %s: addr of unknown global %q", b.Name, in.Sym)
			}
			if in.Imm < 0 || in.Imm >= g.Bytes()+WordBytes {
				return errf("block %s: addr %s offset %d outside global (%d bytes)",
					b.Name, in.Sym, in.Imm, g.Bytes())
			}
		}
	case OpSpill, OpFSpill, OpRestore, OpFRestore:
		if in.Imm < 0 || in.Imm%WordBytes != 0 {
			return errf("block %s: %s has bad frame offset %d", b.Name, in.Op, in.Imm)
		}
		if f.Allocated && in.Imm+WordBytes > f.FrameBytes {
			return errf("block %s: %s offset %d exceeds frame (%d bytes)", b.Name, in.Op, in.Imm, f.FrameBytes)
		}
	case OpCCMSpill, OpCCMFSpill, OpCCMRestore, OpCCMFRestore:
		if in.Imm < 0 || in.Imm%WordBytes != 0 {
			return errf("block %s: %s has bad CCM offset %d", b.Name, in.Op, in.Imm)
		}
	}
	return nil
}
