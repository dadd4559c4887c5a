package ir

import (
	"strings"
	"testing"
)

// verifyErr parses src, expecting Parse to succeed and VerifyProgram to
// fail with a message containing want.
func verifyErr(t *testing.T, src, want string) {
	t.Helper()
	p, err := Parse(src)
	if err != nil {
		t.Fatalf("parse failed: %v", err)
	}
	err = VerifyProgram(p, VerifyOptions{})
	if err == nil {
		t.Fatalf("verify accepted bad program (want %q)", want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not contain %q", err.Error(), want)
	}
}

func verifyOK(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyProgram(p, VerifyOptions{}); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestVerifyGoodProgram(t *testing.T) {
	verifyOK(t, `
global A 2 = i 1 2
func main() {
entry:
	r0 = addr A, 0
	r1 = load r0
	emit r1
	f2 = loadf 1.5
	femit f2
	r3 = call helper(r1)
	emit r3
	ret
}
func helper(r0) int {
entry:
	r1 = loadi 2
	r2 = mul r0, r1
	ret r2
}
`)
}

func TestVerifyBranchToUnknownLabel(t *testing.T) {
	verifyErr(t, `
func main() {
entry:
	jmp nowhere
}
`, "unknown label")
}

func TestVerifyMidBlockTerminator(t *testing.T) {
	// The parser rejects instructions after a terminator, so build directly.
	f := &Func{Name: "m"}
	r := f.NewReg(ClassInt, "")
	f.Blocks = []*Block{{Name: "entry", Instrs: []Instr{
		{Op: OpRet, Dst: NoReg},
		{Op: OpLoadI, Dst: r, Imm: 1},
	}}}
	// Manually craft: terminator mid-block (ret then more instrs then no term).
	err := VerifyFunc(f, VerifyOptions{})
	if err == nil || !strings.Contains(err.Error(), "terminator") {
		t.Fatalf("err = %v", err)
	}
}

func TestVerifyMissingTerminator(t *testing.T) {
	f := &Func{Name: "m"}
	r := f.NewReg(ClassInt, "")
	f.Blocks = []*Block{{Name: "entry", Instrs: []Instr{
		{Op: OpLoadI, Dst: r, Imm: 1},
	}}}
	err := VerifyFunc(f, VerifyOptions{})
	if err == nil || !strings.Contains(err.Error(), "does not end with a terminator") {
		t.Fatalf("err = %v", err)
	}
}

func TestVerifyEmptyBlock(t *testing.T) {
	f := &Func{Name: "m", Blocks: []*Block{{Name: "entry"}}}
	err := VerifyFunc(f, VerifyOptions{})
	if err == nil || !strings.Contains(err.Error(), "empty") {
		t.Fatalf("err = %v", err)
	}
}

func TestVerifyClassMismatch(t *testing.T) {
	f := &Func{Name: "m"}
	ri := f.NewReg(ClassInt, "")
	rf := f.NewReg(ClassFloat, "")
	f.Blocks = []*Block{{Name: "entry", Instrs: []Instr{
		{Op: OpFAdd, Dst: rf, Args: []Reg{ri, rf}},
		{Op: OpRet, Dst: NoReg},
	}}}
	err := VerifyFunc(f, VerifyOptions{})
	if err == nil || !strings.Contains(err.Error(), "class") {
		t.Fatalf("err = %v", err)
	}
}

func TestVerifyDstRules(t *testing.T) {
	f := &Func{Name: "m"}
	r := f.NewReg(ClassInt, "")
	// store must not have a destination
	f.Blocks = []*Block{{Name: "entry", Instrs: []Instr{
		{Op: OpStore, Dst: r, Args: []Reg{r, r}},
		{Op: OpRet, Dst: NoReg},
	}}}
	if err := VerifyFunc(f, VerifyOptions{}); err == nil ||
		!strings.Contains(err.Error(), "must not have a destination") {
		t.Fatalf("err = %v", err)
	}
	// add requires a destination
	f.Blocks = []*Block{{Name: "entry", Instrs: []Instr{
		{Op: OpAdd, Dst: NoReg, Args: []Reg{r, r}},
		{Op: OpRet, Dst: NoReg},
	}}}
	if err := VerifyFunc(f, VerifyOptions{}); err == nil ||
		!strings.Contains(err.Error(), "requires a destination") {
		t.Fatalf("err = %v", err)
	}
}

func TestVerifyArityMismatch(t *testing.T) {
	f := &Func{Name: "m"}
	r := f.NewReg(ClassInt, "")
	f.Blocks = []*Block{{Name: "entry", Instrs: []Instr{
		{Op: OpAdd, Dst: r, Args: []Reg{r}},
		{Op: OpRet, Dst: NoReg},
	}}}
	if err := VerifyFunc(f, VerifyOptions{}); err == nil ||
		!strings.Contains(err.Error(), "operands") {
		t.Fatalf("err = %v", err)
	}
}

func TestVerifyCallRules(t *testing.T) {
	verifyErr(t, `
func main() {
entry:
	call nothing()
	ret
}
`, "unknown function")

	verifyErr(t, `
func main() {
entry:
	r0 = loadi 1
	call f(r0, r0)
	ret
}
func f(r0) {
entry:
	ret
}
`, "passes 2 args")

	verifyErr(t, `
func main() {
entry:
	f10 = loadf 1.0
	call f(f10)
	ret
}
func f(r0) {
entry:
	ret
}
`, "class")

	verifyErr(t, `
func main() {
entry:
	r0 = call f()
	emit r0
	ret
}
func f() {
entry:
	ret
}
`, "void function")
}

func TestVerifyRetRules(t *testing.T) {
	verifyErr(t, `
func main() {
entry:
	r0 = loadi 1
	ret r0
}
`, "ret with value in void function")

	verifyErr(t, `
func f() int {
entry:
	ret
}
`, "ret must return one value")

	verifyErr(t, `
func f() float {
entry:
	r0 = loadi 1
	ret r0
}
`, "class")
}

func TestVerifyAddrRules(t *testing.T) {
	verifyErr(t, `
func main() {
entry:
	r0 = addr G, 0
	emit r0
	ret
}
`, "unknown global")

	verifyErr(t, `
global G 2
func main() {
entry:
	r0 = addr G, 64
	emit r0
	ret
}
`, "outside global")
}

func TestVerifySpillOffsets(t *testing.T) {
	verifyErr(t, `
func main() {
entry:
	r0 = loadi 1
	spill r0, 12
	ret
}
`, "bad frame offset")

	verifyErr(t, `
func main() {
entry:
	r0 = loadi 1
	ccmspill r0, -8
	ret
}
`, "bad CCM offset")
}

func TestVerifyPhiRules(t *testing.T) {
	f := &Func{Name: "m"}
	r := f.NewReg(ClassInt, "")
	r2 := f.NewReg(ClassInt, "")
	f.Blocks = []*Block{{Name: "entry", Instrs: []Instr{
		{Op: OpPhi, Dst: r, Args: []Reg{r2}},
		{Op: OpRet, Dst: NoReg},
	}}}
	if err := VerifyFunc(f, VerifyOptions{}); err == nil ||
		!strings.Contains(err.Error(), "phi present") {
		t.Fatalf("phi without AllowPhi: err = %v", err)
	}
	if err := VerifyFunc(f, VerifyOptions{AllowPhi: true}); err != nil {
		t.Fatalf("phi with AllowPhi rejected: %v", err)
	}
	// Phi after non-phi.
	f.Blocks = []*Block{{Name: "entry", Instrs: []Instr{
		{Op: OpLoadI, Dst: r2, Imm: 1},
		{Op: OpPhi, Dst: r, Args: []Reg{r2}},
		{Op: OpRet, Dst: NoReg},
	}}}
	if err := VerifyFunc(f, VerifyOptions{AllowPhi: true}); err == nil ||
		!strings.Contains(err.Error(), "phi after non-phi") {
		t.Fatalf("err = %v", err)
	}
}

func TestVerifyAllocatedLayout(t *testing.T) {
	f := &Func{Name: "m", Allocated: true, NumInt: 2, NumFloat: 1}
	f.Regs = []RegInfo{{Class: ClassInt}, {Class: ClassInt}, {Class: ClassFloat}}
	f.Blocks = []*Block{{Name: "entry", Instrs: []Instr{{Op: OpRet, Dst: NoReg}}}}
	if err := VerifyFunc(f, VerifyOptions{}); err != nil {
		t.Fatalf("good layout rejected: %v", err)
	}
	f.Regs[1].Class = ClassFloat
	if err := VerifyFunc(f, VerifyOptions{}); err == nil {
		t.Fatal("bad layout accepted")
	}
	f.Regs[1].Class = ClassInt
	f.FrameBytes = 12 // unaligned
	if err := VerifyFunc(f, VerifyOptions{}); err == nil {
		t.Fatal("unaligned frame accepted")
	}
	f.FrameBytes = 8
	f.Blocks[0].Instrs = []Instr{
		{Op: OpRestore, Dst: Reg(0), Imm: 8}, // beyond frame
		{Op: OpRet, Dst: NoReg},
	}
	if err := VerifyFunc(f, VerifyOptions{}); err == nil ||
		!strings.Contains(err.Error(), "exceeds frame") {
		t.Fatalf("err = %v", err)
	}
}

func TestVerifyDuplicateParams(t *testing.T) {
	f := &Func{Name: "m"}
	r := f.NewReg(ClassInt, "")
	f.Params = []Reg{r, r}
	f.Blocks = []*Block{{Name: "entry", Instrs: []Instr{{Op: OpRet, Dst: NoReg}}}}
	if err := VerifyFunc(f, VerifyOptions{}); err == nil ||
		!strings.Contains(err.Error(), "duplicate parameter") {
		t.Fatalf("err = %v", err)
	}
}

func TestVerifyGlobalRules(t *testing.T) {
	p := &Program{Globals: []*Global{{Name: "A", Words: 1, Init: []uint64{1, 2}}}}
	if err := VerifyProgram(p, VerifyOptions{}); err == nil ||
		!strings.Contains(err.Error(), "initializers") {
		t.Fatalf("err = %v", err)
	}
}

// TestVerifyDuplicateNames: a program that declares a global or a
// function twice (which Parse never builds) is refused by name.
func TestVerifyDuplicateNames(t *testing.T) {
	p, err := Parse("global A 1\nglobal B 1\nfunc f() {\nentry:\n\tret\n}\nfunc g() {\nentry:\n\tret\n}")
	if err != nil {
		t.Fatal(err)
	}
	q := &Program{Globals: append(p.Globals, p.Globals[0]), Funcs: p.Funcs}
	if err := VerifyProgram(q, VerifyOptions{}); err == nil || err.Error() != `ir: duplicate global "A"` {
		t.Errorf("duplicate global: err = %v", err)
	}
	q = &Program{Globals: p.Globals, Funcs: append(p.Funcs, p.Funcs[1])}
	if err := VerifyProgram(q, VerifyOptions{}); err == nil || err.Error() != `ir: duplicate function "g"` {
		t.Errorf("duplicate function: err = %v", err)
	}
}
