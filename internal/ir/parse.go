package ir

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Parse reads a whole program in the textual ILOC form produced by
// Program.String. The grammar, line oriented:
//
//	global NAME WORDS [= (i|f|x) v v v ...]
//	func NAME(r0, f1, ...) [int|float] {
//	label:
//		[rN|fN =] op operands
//	}
//
// '#' starts a comment that runs to end of line. Register names use a
// shared index space: r5 and f5 denote the same register slot, and the
// prefix fixes its class; using both prefixes for one index is an error.
//
// The program holds no substring of src: each name it keeps is copied
// once per parse, so a long-lived program pins its names, not its text.
func Parse(src string) (*Program, error) {
	p := &parser{prog: &Program{}, names: map[string]string{}, declared: map[decl]bool{}}
	if err := p.run(src); err != nil {
		return nil, err
	}
	return p.prog, nil
}

type parser struct {
	prog *Program
	f    *Func
	blk  *Block
	line int

	// Scratch the parser reuses from line to line: the current line's
	// operands and the current function's register classes, which
	// endFunc copies into its register table once at its final size.
	ops     []string
	classes []Class

	// names maps every name kept so far to its copy, so each distinct
	// name is copied once and an operand shares its target's copy.
	names map[string]string

	// declared holds every global, function and label declared so far,
	// so each duplicate check is one lookup.
	declared map[decl]bool
}

// A decl is a declared name in its scope: scopeGlobals, scopeFuncs, or,
// for a label, 1 + the index of its function in the program.
type decl struct {
	scope int
	name  string
}

const (
	scopeGlobals = -1
	scopeFuncs   = 0
)

// declare records name in scope and reports whether it is new there.
func (p *parser) declare(scope int, name string) bool {
	k := decl{scope, name}
	if p.declared[k] {
		return false
	}
	p.declared[k] = true
	return true
}

// name returns the parse's copy of s, a substring of the source.
func (p *parser) name(s string) string {
	if c, ok := p.names[s]; ok {
		return c
	}
	c := strings.Clone(s)
	p.names[c] = c
	return c
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("parse line %d: %s", p.line, fmt.Sprintf(format, args...))
}

func (p *parser) run(src string) error {
	// Cut yields the same lines as strings.Split(src, "\n"), the empty
	// one after a trailing newline included, so line numbers count it.
	for rest, more := src, true; more; {
		var line string
		line, rest, more = strings.Cut(rest, "\n")
		p.line++
		line, kind := classify(line)
		var err error
		switch kind {
		case lineBlank:
		case lineGlobal:
			err = p.parseGlobal(line)
		case lineFunc:
			err = p.parseFuncHeader(line)
		case lineEnd:
			err = p.endFunc()
		case lineLabel:
			err = p.startBlock(strings.TrimSuffix(line, ":"), rest)
		default:
			err = p.parseInstr(line)
		}
		if err != nil {
			return err
		}
	}
	if p.f != nil {
		return p.errf("missing closing brace for func %s", p.f.Name)
	}
	return nil
}

// A lineKind is what a source line is to the parser.
type lineKind uint8

const (
	lineBlank lineKind = iota // empty once its comment is removed
	lineGlobal
	lineFunc // a function header
	lineEnd  // a function's closing brace
	lineLabel
	lineInstr // anything else, which parseInstr parses or refuses
)

// classify removes line's comment and surrounding space and says what
// the rest is. run dispatches on it, and blockLines counts by it, so the
// two agree on where a block ends.
func classify(line string) (string, lineKind) {
	if i := strings.IndexByte(line, '#'); i >= 0 {
		line = line[:i]
	}
	line = strings.TrimSpace(line)
	switch {
	case line == "":
		return line, lineBlank
	case strings.HasPrefix(line, "global "):
		return line, lineGlobal
	case strings.HasPrefix(line, "func "):
		return line, lineFunc
	case line == "}":
		return line, lineEnd
	case strings.HasSuffix(line, ":") && !strings.Contains(line, " "):
		return line, lineLabel
	}
	return line, lineInstr
}

func (p *parser) parseGlobal(line string) error {
	if p.f != nil {
		return p.errf("global declaration inside function")
	}
	rest := strings.TrimPrefix(line, "global ")
	var init string
	if i := strings.IndexByte(rest, '='); i >= 0 {
		init = strings.TrimSpace(rest[i+1:])
		rest = strings.TrimSpace(rest[:i])
	}
	fields := strings.Fields(rest)
	if len(fields) != 2 {
		return p.errf("global wants 'global NAME WORDS', got %q", line)
	}
	words, err := strconv.Atoi(fields[1])
	if err != nil || words < 0 {
		return p.errf("bad global size %q", fields[1])
	}
	g := &Global{Name: p.name(fields[0]), Words: words}
	if init != "" {
		vals := strings.Fields(init)
		if len(vals) < 1 {
			return p.errf("empty global initializer")
		}
		kind, vals := vals[0], vals[1:]
		if len(vals) > words {
			return p.errf("global %s: %d initializers for %d words", g.Name, len(vals), words)
		}
		for _, v := range vals {
			switch kind {
			case "i":
				n, err := strconv.ParseInt(v, 10, 64)
				if err != nil {
					return p.errf("bad int initializer %q", v)
				}
				g.Init = append(g.Init, uint64(n))
			case "f":
				x, err := strconv.ParseFloat(v, 64)
				if err != nil {
					return p.errf("bad float initializer %q", v)
				}
				g.Init = append(g.Init, math.Float64bits(x))
			case "x":
				n, err := strconv.ParseUint(v, 16, 64)
				if err != nil {
					return p.errf("bad hex initializer %q", v)
				}
				g.Init = append(g.Init, n)
			default:
				return p.errf("unknown initializer kind %q (want i, f, or x)", kind)
			}
		}
	}
	if !p.declare(scopeGlobals, g.Name) {
		return fmt.Errorf("ir: duplicate global %q", g.Name)
	}
	p.prog.Globals = append(p.prog.Globals, g)
	return nil
}

func (p *parser) parseFuncHeader(line string) error {
	if p.f != nil {
		return p.errf("nested func")
	}
	rest := strings.TrimPrefix(line, "func ")
	if !strings.HasSuffix(rest, "{") {
		return p.errf("func header must end with '{'")
	}
	rest = strings.TrimSpace(strings.TrimSuffix(rest, "{"))
	open := strings.IndexByte(rest, '(')
	close_ := strings.LastIndexByte(rest, ')')
	if open < 0 || close_ < open {
		return p.errf("malformed func header %q", line)
	}
	name := strings.TrimSpace(rest[:open])
	if name == "" {
		return p.errf("func missing name")
	}
	ret := ClassNone
	switch tail := strings.TrimSpace(rest[close_+1:]); tail {
	case "":
	case "int":
		ret = ClassInt
	case "float":
		ret = ClassFloat
	default:
		return p.errf("unknown return class %q", tail)
	}
	p.f = &Func{Name: p.name(name), RetClass: ret}
	params := strings.TrimSpace(rest[open+1 : close_])
	if params != "" {
		for _, tok := range p.operands(params) {
			r, err := p.reg(tok)
			if err != nil {
				return err
			}
			p.f.Params = append(p.f.Params, r)
		}
	}
	return nil
}

func (p *parser) endFunc() error {
	if p.f == nil {
		return p.errf("unexpected '}'")
	}
	if len(p.f.Blocks) == 0 {
		return p.errf("func %s has no blocks", p.f.Name)
	}
	if len(p.classes) > 0 {
		p.f.Regs = make([]RegInfo, len(p.classes))
		for i, c := range p.classes {
			p.f.Regs[i].Class = c
		}
		p.classes = p.classes[:0]
	}
	p.f.Renumber()
	if !p.declare(scopeFuncs, p.f.Name) {
		return fmt.Errorf("ir: duplicate function %q", p.f.Name)
	}
	p.prog.Funcs = append(p.prog.Funcs, p.f)
	p.f, p.blk = nil, nil
	return nil
}

// startBlock opens the block labelled name; rest is the source after
// its label line. The block's instructions are appended in place to a
// slice sized once from a count of its instruction lines.
func (p *parser) startBlock(name, rest string) error {
	if p.f == nil {
		return p.errf("label %q outside function", name)
	}
	if !p.declare(len(p.prog.Funcs)+1, name) {
		return p.errf("duplicate block label %q", name)
	}
	p.blk = &Block{Name: p.name(name), Index: len(p.f.Blocks)}
	if n := blockLines(rest); n > 0 {
		p.blk.Instrs = make([]Instr, 0, n)
	}
	p.f.Blocks = append(p.f.Blocks, p.blk)
	return nil
}

// blockLines counts the instruction lines of src up to the first line
// that is neither an instruction nor blank: the block's instruction
// count for any program that parses, since run parses each such line
// into one instruction or stops. The scan ends where run's own next
// block starts, so each line of a source is counted at most once.
func blockLines(src string) int {
	n := 0
	for more := true; more; {
		var line string
		line, src, more = strings.Cut(src, "\n")
		switch _, kind := classify(line); kind {
		case lineInstr:
			n++
		case lineBlank:
		default:
			return n
		}
	}
	return n
}

// operands splits s at its commas into the parser's scratch slice,
// trimming each operand; the slice is valid until the next call.
func (p *parser) operands(s string) []string {
	p.ops = p.ops[:0]
	for more := true; more; {
		var op string
		op, s, more = strings.Cut(s, ",")
		p.ops = append(p.ops, strings.TrimSpace(op))
	}
	return p.ops
}

// regs resolves register tokens into a slice allocated at their count.
func (p *parser) regs(toks []string) ([]Reg, error) {
	rs := make([]Reg, len(toks))
	for i, tok := range toks {
		r, err := p.reg(tok)
		if err != nil {
			return nil, err
		}
		rs[i] = r
	}
	return rs, nil
}

// reg resolves a register token ("r12", "f3"), recording its class and
// checking class consistency across mentions.
func (p *parser) reg(tok string) (Reg, error) {
	if len(tok) < 2 || (tok[0] != 'r' && tok[0] != 'f') {
		return NoReg, p.errf("bad register %q", tok)
	}
	n, err := strconv.Atoi(tok[1:])
	if err != nil || n < 0 || n >= MaxRegs {
		return NoReg, p.errf("bad register %q", tok)
	}
	c := ClassInt
	if tok[0] == 'f' {
		c = ClassFloat
	}
	if n >= len(p.classes) {
		p.classes = append(p.classes, make([]Class, n+1-len(p.classes))...)
	}
	switch p.classes[n] {
	case ClassNone:
		p.classes[n] = c
	case c:
	default:
		return NoReg, p.errf("register %d used as both int and float", n)
	}
	return Reg(n), nil
}

func (p *parser) parseInstr(line string) error {
	if p.f == nil {
		return p.errf("instruction outside function")
	}
	if p.blk == nil {
		return p.errf("instruction before any label")
	}
	if p.blk.Term() != nil {
		return p.errf("instruction after terminator in block %s", p.blk.Name)
	}
	var dstTok string
	if i := strings.Index(line, "="); i >= 0 && !strings.Contains(line[:i], "(") {
		dstTok = strings.TrimSpace(line[:i])
		line = strings.TrimSpace(line[i+1:])
	}
	opTok := line
	rest := ""
	if i := strings.IndexAny(line, " ("); i >= 0 {
		opTok = line[:i]
		rest = strings.TrimSpace(line[i:])
	}
	op, ok := opByName[opTok]
	if !ok {
		return p.errf("unknown opcode %q", opTok)
	}
	in := Instr{Op: op, Dst: NoReg}
	if dstTok != "" {
		dst, err := p.reg(dstTok)
		if err != nil {
			return err
		}
		in.Dst = dst
	}

	switch op {
	case OpNop:
	case OpLoadI:
		n, err := strconv.ParseInt(rest, 10, 64)
		if err != nil {
			return p.errf("loadi wants an integer, got %q", rest)
		}
		in.Imm = n
	case OpLoadF:
		x, err := strconv.ParseFloat(rest, 64)
		if err != nil {
			return p.errf("loadf wants a float, got %q", rest)
		}
		in.FImm = x
	case OpAddr:
		parts := p.operands(rest)
		if len(parts) != 2 {
			return p.errf("addr wants 'addr SYM, OFFSET'")
		}
		in.Sym = p.name(parts[0])
		n, err := strconv.ParseInt(parts[1], 10, 64)
		if err != nil {
			return p.errf("bad addr offset %q", parts[1])
		}
		in.Imm = n
	case OpLoadAI, OpFLoadAI, OpSpill, OpFSpill, OpCCMSpill, OpCCMFSpill, OpStoreAI, OpFStoreAI:
		parts := p.operands(rest)
		nregs := op.NumArgs()
		if len(parts) != nregs+1 {
			if nregs == 2 {
				return p.errf("%s wants 'val, addr, offset'", op)
			}
			return p.errf("%s wants 'reg, offset'", op)
		}
		var err error
		if in.Args, err = p.regs(parts[:nregs]); err != nil {
			return err
		}
		if in.Imm, err = strconv.ParseInt(parts[nregs], 10, 64); err != nil {
			return p.errf("bad offset %q", parts[nregs])
		}
	case OpRestore, OpFRestore, OpCCMRestore, OpCCMFRestore:
		n, err := strconv.ParseInt(rest, 10, 64)
		if err != nil {
			return p.errf("%s wants an offset, got %q", op, rest)
		}
		in.Imm = n
	case OpJmp:
		if rest == "" {
			return p.errf("jmp wants a label")
		}
		in.Then = p.name(rest)
	case OpCBr:
		parts := p.operands(rest)
		if len(parts) != 3 {
			return p.errf("cbr wants 'cond, then, else'")
		}
		c, err := p.reg(parts[0])
		if err != nil {
			return err
		}
		in.Args, in.Then, in.Else = []Reg{c}, p.name(parts[1]), p.name(parts[2])
	case OpCall:
		open := strings.IndexByte(rest, '(')
		close_ := strings.LastIndexByte(rest, ')')
		if open < 0 || close_ < open {
			return p.errf("call wants 'call NAME(args)'")
		}
		in.Sym = p.name(strings.TrimSpace(rest[:open]))
		if argstr := strings.TrimSpace(rest[open+1 : close_]); argstr != "" {
			var err error
			if in.Args, err = p.regs(p.operands(argstr)); err != nil {
				return err
			}
		}
	case OpRet:
		if rest != "" {
			r, err := p.reg(rest)
			if err != nil {
				return err
			}
			in.Args = []Reg{r}
		}
	case OpPhi:
		var err error
		if in.Args, err = p.regs(p.operands(rest)); err != nil {
			return err
		}
	default:
		// Uniform fixed-arity register ops.
		want := op.NumArgs()
		var parts []string
		if rest != "" {
			parts = p.operands(rest)
		}
		if len(parts) != want {
			return p.errf("%s wants %d operands, got %d", op, want, len(parts))
		}
		var err error
		if in.Args, err = p.regs(parts); err != nil {
			return err
		}
	}
	p.blk.Instrs = append(p.blk.Instrs, in)
	return nil
}
