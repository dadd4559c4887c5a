package ir

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// everyFormSrc writes every instruction form, global initializer kind
// and function signature shape, with comments and blank lines.
const everyFormSrc = `
# comment line
global G 8 = i 1 -2 3
global H 2 = f 1.5 -0.25
global X 1 = x deadbeef

func main() {  # trailing comment
entry:
	nop
	r0 = loadi -42
	f1 = loadf 2.5
	r2 = add r0, r0
	r3 = sub r2, r0
	r4 = mul r3, r3
	r5 = div r4, r3
	r6 = rem r5, r3
	r7 = and r6, r5
	r8 = or r7, r6
	r9 = xor r8, r7
	r10 = shl r9, r0
	r11 = shr r10, r0
	r12 = neg r11
	r13 = not r12
	r14 = cmplt r13, r12
	r15 = cmple r14, r13
	r16 = cmpgt r15, r14
	r17 = cmpge r16, r15
	r18 = cmpeq r17, r16
	r19 = cmpne r18, r17
	f20 = fadd f1, f1
	f21 = fsub f20, f1
	f22 = fmul f21, f20
	f23 = fdiv f22, f21
	f24 = fneg f23
	f25 = fabs f24
	f26 = fsqrt f25
	r27 = fcmplt f26, f25
	r28 = fcmple f26, f25
	r29 = fcmpgt f26, f25
	r30 = fcmpge f26, f25
	r31 = fcmpeq f26, f25
	r32 = fcmpne f26, f25
	f33 = i2f r32
	r34 = f2i f33
	r35 = copy r34
	f36 = fcopy f33
	r37 = addr G, 16
	r38 = load r37
	r39 = loadai r37, 8
	store r38, r37
	storeai r39, r37, 8
	f40 = fload r37
	f41 = floadai r37, 8
	fstore f40, r37
	fstoreai f41, r37, 8
	spill r39, 0
	r42 = restore 0
	fspill f41, 8
	f43 = frestore 8
	ccmspill r42, 0
	r44 = ccmrestore 0
	ccmfspill f43, 8
	f45 = ccmfrestore 8
	emit r44
	femit f45
	r46 = call fn(r44, f45)
	call fn2()
	cbr r46, next, next
next:
	jmp done
done:
	ret
}

func fn(r0, f1) int {
entry:
	ret r0
}

func fn2() {
entry:
	ret
}
`

// everyFormText is everyFormSrc in the printer's canonical form.
const everyFormText = `global G 8 = x 1 fffffffffffffffe 3
global H 2 = x 3ff8000000000000 bfd0000000000000
global X 1 = x deadbeef

func main() {
entry:
	nop
	r0 = loadi -42
	f1 = loadf 2.5
	r2 = add r0, r0
	r3 = sub r2, r0
	r4 = mul r3, r3
	r5 = div r4, r3
	r6 = rem r5, r3
	r7 = and r6, r5
	r8 = or r7, r6
	r9 = xor r8, r7
	r10 = shl r9, r0
	r11 = shr r10, r0
	r12 = neg r11
	r13 = not r12
	r14 = cmplt r13, r12
	r15 = cmple r14, r13
	r16 = cmpgt r15, r14
	r17 = cmpge r16, r15
	r18 = cmpeq r17, r16
	r19 = cmpne r18, r17
	f20 = fadd f1, f1
	f21 = fsub f20, f1
	f22 = fmul f21, f20
	f23 = fdiv f22, f21
	f24 = fneg f23
	f25 = fabs f24
	f26 = fsqrt f25
	r27 = fcmplt f26, f25
	r28 = fcmple f26, f25
	r29 = fcmpgt f26, f25
	r30 = fcmpge f26, f25
	r31 = fcmpeq f26, f25
	r32 = fcmpne f26, f25
	f33 = i2f r32
	r34 = f2i f33
	r35 = copy r34
	f36 = fcopy f33
	r37 = addr G, 16
	r38 = load r37
	r39 = loadai r37, 8
	store r38, r37
	storeai r39, r37, 8
	f40 = fload r37
	f41 = floadai r37, 8
	fstore f40, r37
	fstoreai f41, r37, 8
	spill r39, 0
	r42 = restore 0
	fspill f41, 8
	f43 = frestore 8
	ccmspill r42, 0
	r44 = ccmrestore 0
	ccmfspill f43, 8
	f45 = ccmfrestore 8
	emit r44
	femit f45
	r46 = call fn(r44, f45)
	call fn2()
	cbr r46, next, next
next:
	jmp done
done:
	ret
}

func fn(r0, f1) int {
entry:
	ret r0
}

func fn2() {
entry:
	ret
}
`

func TestParseEveryInstructionForm(t *testing.T) {
	p, err := Parse(everyFormSrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyProgram(p, VerifyOptions{}); err != nil {
		t.Fatal(err)
	}
	// Globals decoded correctly.
	g := p.Global("G")
	if g.Words != 8 || int64(g.Init[1]) != -2 {
		t.Fatalf("global G = %+v", g)
	}
	h := p.Global("H")
	if math.Float64frombits(h.Init[1]) != -0.25 {
		t.Fatal("float initializer wrong")
	}
	x := p.Global("X")
	if x.Init[0] != 0xdeadbeef {
		t.Fatal("hex initializer wrong")
	}
	// Round-trip.
	text := p.String()
	q, err := Parse(text)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, text)
	}
	if q.String() != text {
		t.Fatal("print→parse→print not a fixed point")
	}
}

// TestParseKeepsNoSourceText: every name a parsed program keeps is a
// copy, so a program outliving its request does not pin the request's
// text, and an operand naming a block, function or global shares that
// name's one copy.
func TestParseKeepsNoSourceText(t *testing.T) {
	src := strings.Repeat(" ", 8) + everyFormSrc // a heap copy, as a request's text is
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	lo := uintptr(unsafe.Pointer(unsafe.StringData(src)))
	hi := lo + uintptr(len(src))
	kept := 0
	check := func(what, s string) {
		if s == "" {
			return
		}
		kept++
		if at := uintptr(unsafe.Pointer(unsafe.StringData(s))); at >= lo && at < hi {
			t.Errorf("%s %q lies inside the source text", what, s)
		}
	}
	same := func(what, a, b string) {
		if unsafe.StringData(a) != unsafe.StringData(b) {
			t.Errorf("%s %q is a copy of its own, not its target's", what, a)
		}
	}
	for _, g := range p.Globals {
		check("global", g.Name)
	}
	for _, f := range p.Funcs {
		check("func", f.Name)
		for _, r := range f.Regs {
			check("register name", r.Name)
		}
		for _, b := range f.Blocks {
			check("block", b.Name)
			for _, in := range b.Instrs {
				check("symbol", in.Sym)
				check("then", in.Then)
				check("else", in.Else)
				if in.Then != "" {
					same("branch target", in.Then, f.BlockNamed(in.Then).Name)
				}
				switch {
				case in.Op == OpCall:
					same("callee", in.Sym, p.Func(in.Sym).Name)
				case in.Sym != "":
					same("address symbol", in.Sym, p.Global(in.Sym).Name)
				}
			}
		}
	}
	if kept < 10 {
		t.Fatalf("only %d names checked; the test checks nothing", kept)
	}
}

func TestParsePhiRoundTrip(t *testing.T) {
	src := `func f() {
entry:
	r0 = loadi 1
	jmp merge
merge:
	r1 = phi r0, r1
	jmp merge
}
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyProgram(p, VerifyOptions{AllowPhi: true}); err != nil {
		t.Fatal(err)
	}
	if p.String() != src {
		t.Fatalf("round trip:\n%q\n%q", p.String(), src)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{"global G", "global wants"},
		{"global G x", "bad global size"},
		{"global G 2 = i 1 2 3", "3 initializers for 2 words"},
		{"global G 2 = q 1", "unknown initializer kind"},
		{"global G 1 = i zz", "bad int initializer"},
		{"func f( {", "malformed func header"},
		{"func f() wat {", "unknown return class"},
		{"func f() {\nentry:\n\tret\n}\nglobal G 1 # after func is fine\nfunc f() {\nentry:\n\tret\n}", `ir: duplicate function "f"`},
		{"global G 1\nglobal H 1\nglobal G 2", `ir: duplicate global "G"`},
		{"func f() {\nentry:\n\tfrobnicate r1\n}", "unknown opcode"},
		{"func f() {\nentry:\n\tr0 = loadi xyz\n}", "loadi wants an integer"},
		{"func f() {\nentry:\n\tr0 = add r1\n}", "add wants 2 operands"},
		{"func f() {\nentry:\n\tr0 = add q1, r2\n}", "bad register"},
		{fmt.Sprintf("func main() {\nentry:\n\tr%d = loadi 1\n\tret\n}", MaxRegs), "bad register"},
		{"func f() {\nentry:\n\tr0 = loadi 1\n\tf0 = loadf 1.0\n\tret\n}", "both int and float"},
		{"func f() {\n\tr0 = loadi 1\n}", "before any label"},
		{"r0 = loadi 1", "outside function"},
		{"func f() {\nentry:\n\tret\nentry:\n\tret\n}", `parse line 4: duplicate block label "entry"`},
		// Labels are scoped to their function.
		{"func f() {\nentry:\n\tret\n}\nfunc g() {\nentry:\n\tret\nx:\n\tret\nx:\n\tret\n}", `parse line 10: duplicate block label "x"`},
		{"func f() {\nentry:\n\tret\n\tnop\n}", "after terminator"},
		// The line count takes in the empty line after a final newline.
		{"func f() {\nentry:\n\tret\n", "parse line 4: missing closing brace for func f"},
		{"func f() {\nentry:\n\tret", "parse line 3: missing closing brace for func f"},
		{"}", "unexpected '}'"},
		{"func f() {\nentry:\n\tcbr r0, a\n}", "cbr wants"},
		{"func f() {\nentry:\n\tjmp\n}", "jmp wants a label"},
		{"func f() {\nentry:\n\tspill r0, x\n}", "bad offset"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("Parse accepted %q (want error %q)", c.src, c.want)
			continue
		}
		// A want naming the line is the whole message; others are substrings.
		if strings.HasPrefix(c.want, "parse line ") {
			if err.Error() != c.want {
				t.Errorf("Parse(%q) error %q, want %q", c.src, err, c.want)
			}
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q) error %q, want substring %q", c.src, err, c.want)
		}
	}
}

// TestPrintExactText pins the printer's bytes to literal text: the
// canonical form of every instruction, float constants at the edges of
// their shortest form, a full-width hex initializer, and the register
// names of NoReg and of a register with no class.
func TestPrintExactText(t *testing.T) {
	p, err := Parse(everyFormSrc)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.String(); got != everyFormText {
		t.Errorf("printed:\n%s\nwant:\n%s", got, everyFormText)
	}

	f := &Func{Name: "x"}
	fr := f.NewReg(ClassFloat, "")
	for _, c := range []struct {
		x    float64
		want string
	}{
		{math.Copysign(0, -1), "f0 = loadf -0"},
		{math.NaN(), "f0 = loadf NaN"},
		{math.Inf(1), "f0 = loadf +Inf"},
		{math.Inf(-1), "f0 = loadf -Inf"},
		{1e21, "f0 = loadf 1e+21"},
		{5e-324, "f0 = loadf 5e-324"},
		{0.1, "f0 = loadf 0.1"},
	} {
		in := Instr{Op: OpLoadF, Dst: fr, FImm: c.x}
		if got := f.FormatInstr(&in); got != c.want {
			t.Errorf("FormatInstr(loadf %v) = %q, want %q", c.x, got, c.want)
		}
	}

	g := &Program{Globals: []*Global{{Name: "G", Words: 1, Init: []uint64{math.MaxUint64}}}}
	if got, want := g.String(), "global G 1 = x ffffffffffffffff\n\n"; got != want {
		t.Errorf("global printed %q, want %q", got, want)
	}

	none := f.NewReg(ClassNone, "")
	for _, c := range []struct {
		r    Reg
		want string
	}{{NoReg, "_"}, {none, "r1"}} {
		if got := f.RegName(c.r); got != c.want {
			t.Errorf("RegName(%d) = %q, want %q", c.r, got, c.want)
		}
	}
}

// TestFuncTextKept: a frozen function prints the bytes its mutable clone
// prints, and keeps them, so its later prints, and its program's, copy
// that text. A clone of it keeps no text and neither does a mutable
// function, so a rewrite of either shows when it is next printed. Eight
// goroutines printing one frozen function for the first time agree on
// its text; verify.sh runs this ten times under the race detector.
func TestFuncTextKept(t *testing.T) {
	p, err := Parse(everyFormSrc)
	if err != nil {
		t.Fatal(err)
	}
	want := p.String()
	frozen := p.Clone()
	for _, f := range frozen.Funcs {
		f.Freeze()
	}
	for i, f := range frozen.Funcs {
		text := f.String()
		if mutable := p.Funcs[i].String(); text != mutable {
			t.Errorf("frozen %s printed:\n%s\nits mutable clone:\n%s", f.Name, text, mutable)
		}
		if again := f.String(); unsafe.StringData(again) != unsafe.StringData(text) {
			t.Errorf("frozen %s was printed again; want the text it keeps", f.Name)
		}
	}
	if got := frozen.String(); got != want {
		t.Errorf("frozen program printed:\n%s\nwant:\n%s", got, want)
	}

	f, m := frozen.Funcs[0], p.Funcs[0]
	c := f.Clone()
	if c.text.Load() != nil {
		t.Error("a clone of a printed frozen function keeps its text")
	}
	if m.text.Load() != nil {
		t.Error("a printed mutable function keeps its text")
	}
	text := f.String()
	for _, g := range []*Func{c, m} {
		g.Name = "rewritten"
		if got := g.String(); !strings.HasPrefix(got, "func rewritten(") {
			t.Errorf("a rewritten mutable function printed:\n%s", got)
		}
	}
	if f.String() != text {
		t.Error("rewriting a clone changed the frozen function's text")
	}

	fresh := f.Clone()
	fresh.Freeze()
	texts := make([]string, 8)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range texts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			texts[i] = fresh.String()
		}()
	}
	close(start)
	wg.Wait()
	for i, got := range texts {
		if got != text || unsafe.StringData(got) != unsafe.StringData(texts[0]) {
			t.Errorf("goroutine %d printed a text of its own:\n%s", i, got)
		}
	}
}

func TestParseGlobalInsideFunction(t *testing.T) {
	_, err := Parse("func f() {\nentry:\nglobal G 1\n\tret\n}")
	if err == nil || !strings.Contains(err.Error(), "inside function") {
		t.Fatalf("err = %v", err)
	}
}

func TestFormatInstrSpecials(t *testing.T) {
	f := &Func{Name: "x"}
	r := f.NewReg(ClassInt, "")
	cases := []struct {
		in   Instr
		want string
	}{
		{Instr{Op: OpNop, Dst: NoReg}, "nop"},
		{Instr{Op: OpLoadI, Dst: r, Imm: -7}, "r0 = loadi -7"},
		{Instr{Op: OpAddr, Dst: r, Sym: "G", Imm: 8}, "r0 = addr G, 8"},
		{Instr{Op: OpRet, Dst: NoReg}, "ret"},
		{Instr{Op: OpRet, Dst: NoReg, Args: []Reg{r}}, "ret r0"},
		{Instr{Op: OpCall, Dst: NoReg, Sym: "g", Args: []Reg{r, r}}, "call g(r0, r0)"},
		{Instr{Op: OpCall, Dst: r, Sym: "g"}, "r0 = call g()"},
		{Instr{Op: OpCBr, Dst: NoReg, Args: []Reg{r}, Then: "a", Else: "b"}, "cbr r0, a, b"},
		{Instr{Op: OpSpill, Dst: NoReg, Args: []Reg{r}, Imm: 16}, "spill r0, 16"},
		{Instr{Op: OpCCMRestore, Dst: r, Imm: 24}, "r0 = ccmrestore 24"},
	}
	for _, c := range cases {
		if got := f.FormatInstr(&c.in); got != c.want {
			t.Errorf("FormatInstr = %q, want %q", got, c.want)
		}
	}
}
