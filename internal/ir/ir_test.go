package ir

import (
	"strings"
	"testing"
)

func TestOpMetadata(t *testing.T) {
	cases := []struct {
		op       Op
		term     bool
		mainMem  bool
		ccm      bool
		sideEff  bool
		commut   bool
		dstClass Class
		nargs    int
	}{
		{OpNop, false, false, false, false, false, ClassNone, 0},
		{OpAdd, false, false, false, false, true, ClassInt, 2},
		{OpSub, false, false, false, false, false, ClassInt, 2},
		{OpFMul, false, false, false, false, true, ClassFloat, 2},
		{OpFCmpLT, false, false, false, false, false, ClassInt, 2},
		{OpLoad, false, true, false, true, false, ClassInt, 1},
		{OpFStoreAI, false, true, false, true, false, ClassNone, 2},
		{OpSpill, false, true, false, true, false, ClassNone, 1},
		{OpRestore, false, true, false, true, false, ClassInt, 0},
		{OpCCMSpill, false, false, true, true, false, ClassNone, 1},
		{OpCCMFRestore, false, false, true, true, false, ClassFloat, 0},
		{OpJmp, true, false, false, true, false, ClassNone, 0},
		{OpCBr, true, false, false, true, false, ClassNone, 1},
		{OpRet, true, false, false, true, false, ClassNone, -1},
		{OpCall, false, false, false, true, false, ClassNone, -1},
		{OpEmit, false, false, false, true, false, ClassNone, 1},
		{OpDiv, false, false, false, true, false, ClassInt, 2},
	}
	for _, c := range cases {
		if c.op.IsTerminator() != c.term {
			t.Errorf("%v IsTerminator = %v", c.op, !c.term)
		}
		if c.op.IsMainMemOp() != c.mainMem {
			t.Errorf("%v IsMainMemOp = %v", c.op, !c.mainMem)
		}
		if c.op.IsCCMOp() != c.ccm {
			t.Errorf("%v IsCCMOp = %v", c.op, !c.ccm)
		}
		if c.op.HasSideEffects() != c.sideEff {
			t.Errorf("%v HasSideEffects = %v", c.op, !c.sideEff)
		}
		if c.op.IsCommutative() != c.commut {
			t.Errorf("%v IsCommutative = %v", c.op, !c.commut)
		}
		if c.op.DstClass() != c.dstClass {
			t.Errorf("%v DstClass = %v", c.op, c.op.DstClass())
		}
		if c.op.NumArgs() != c.nargs {
			t.Errorf("%v NumArgs = %d", c.op, c.op.NumArgs())
		}
	}
}

func TestOpNamesUniqueAndParseable(t *testing.T) {
	seen := map[string]Op{}
	for op := Op(0); op < numOps; op++ {
		name := op.String()
		if name == "" {
			t.Fatalf("op %d has no name", op)
		}
		if prev, dup := seen[name]; dup {
			t.Fatalf("ops %v and %v share name %q", prev, op, name)
		}
		seen[name] = op
		if got, ok := opByName[name]; !ok || got != op {
			t.Fatalf("opByName[%q] = %v, want %v", name, got, op)
		}
	}
}

func TestOpHelperPairs(t *testing.T) {
	if s, r := SpillOpFor(ClassInt); s != OpSpill || r != OpRestore {
		t.Fatal("SpillOpFor(int)")
	}
	if s, r := SpillOpFor(ClassFloat); s != OpFSpill || r != OpFRestore {
		t.Fatal("SpillOpFor(float)")
	}
	if s, r := CCMOpFor(ClassInt); s != OpCCMSpill || r != OpCCMRestore {
		t.Fatal("CCMOpFor(int)")
	}
	if s, r := CCMOpFor(ClassFloat); s != OpCCMFSpill || r != OpCCMFRestore {
		t.Fatal("CCMOpFor(float)")
	}
	if CopyOpFor(ClassInt) != OpCopy || CopyOpFor(ClassFloat) != OpFCopy {
		t.Fatal("CopyOpFor")
	}
}

func TestSpillPredicates(t *testing.T) {
	for _, op := range []Op{OpSpill, OpFSpill} {
		if !op.IsSpill() || op.IsRestore() || op.IsCCMSpill() {
			t.Errorf("%v spill predicates wrong", op)
		}
	}
	for _, op := range []Op{OpCCMRestore, OpCCMFRestore} {
		if !op.IsCCMRestore() || op.IsCCMSpill() || op.IsRestore() {
			t.Errorf("%v ccm predicates wrong", op)
		}
	}
}

func buildMini(t *testing.T) *Func {
	t.Helper()
	b := NewBuilder("mini", ClassInt)
	n := b.Param(ClassInt, "n")
	b.Label("entry")
	one := b.ConstI(1)
	b.CBr(b.CmpGT(n, one), "big", "small")
	b.Label("big")
	b.RetVal(b.Mul(n, n))
	b.Label("small")
	b.RetVal(b.Add(n, one))
	f, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestBuilderBasics(t *testing.T) {
	f := buildMini(t)
	if f.Name != "mini" || f.RetClass != ClassInt {
		t.Fatal("header wrong")
	}
	if len(f.Blocks) != 3 || f.Entry().Name != "entry" {
		t.Fatal("blocks wrong")
	}
	if err := VerifyFunc(f, VerifyOptions{}); err != nil {
		t.Fatal(err)
	}
	if f.NumInstrs() != 7 {
		t.Fatalf("NumInstrs = %d", f.NumInstrs())
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder("bad", ClassNone)
	x := b.Reg(ClassInt, "x")
	b.Append(Instr{Op: OpEmit, Dst: NoReg, Args: []Reg{x}}) // before any label
	if _, err := b.Finish(); err == nil || !strings.Contains(err.Error(), "before any Label") {
		t.Fatalf("err = %v", err)
	}

	b2 := NewBuilder("bad2", ClassNone)
	b2.Label("entry")
	b2.Ret()
	b2.Emit(b2.ConstI(1)) // after terminator — ConstI emits after ret
	if _, err := b2.Finish(); err == nil || !strings.Contains(err.Error(), "after terminator") {
		t.Fatalf("err = %v", err)
	}

	b3 := NewBuilder("bad3", ClassNone)
	b3.Label("entry")
	// missing terminator
	b3.Emit(b3.ConstI(1))
	// move emit before: actually ConstI ran first; block ends without term
	if _, err := b3.Finish(); err == nil || !strings.Contains(err.Error(), "terminator") {
		t.Fatalf("err = %v", err)
	}

	b4 := NewBuilder("bad4", ClassNone)
	b4.At("nosuch")
	b4.Label("entry")
	b4.Ret()
	if _, err := b4.Finish(); err == nil || !strings.Contains(err.Error(), "no such block") {
		t.Fatalf("err = %v", err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	f := buildMini(t)
	p := &Program{}
	if err := p.AddFunc(f); err != nil {
		t.Fatal(err)
	}
	if err := p.AddGlobal(&Global{Name: "G", Words: 4, Init: []uint64{1, 2}}); err != nil {
		t.Fatal(err)
	}
	q := p.Clone()
	// Mutate original deeply.
	f.Blocks[0].Instrs[0].Imm = 999
	f.Blocks[0].Instrs[1].Args[0] = Reg(0)
	p.Globals[0].Init[0] = 77
	p.Globals[0].Name = "H"

	qf := q.Func("mini")
	if qf.Blocks[0].Instrs[0].Imm == 999 {
		t.Fatal("instr aliased")
	}
	if q.Globals[0].Init[0] == 77 || q.Globals[0].Name != "G" {
		t.Fatal("global aliased")
	}
}

func TestProgramLookupAndDuplicates(t *testing.T) {
	p := &Program{}
	f := buildMini(t)
	if err := p.AddFunc(f); err != nil {
		t.Fatal(err)
	}
	if err := p.AddFunc(f.Clone()); err == nil {
		t.Fatal("duplicate function accepted")
	}
	if p.Func("mini") == nil || p.Func("nope") != nil {
		t.Fatal("Func lookup wrong")
	}
	g := &Global{Name: "A", Words: 1}
	if err := p.AddGlobal(g); err != nil {
		t.Fatal(err)
	}
	if err := p.AddGlobal(&Global{Name: "A", Words: 2}); err == nil {
		t.Fatal("duplicate global accepted")
	}
	if p.Global("A") == nil || p.Global("B") != nil {
		t.Fatal("Global lookup wrong")
	}
	if g.Bytes() != 8 {
		t.Fatalf("Bytes = %d", g.Bytes())
	}
}

func TestTargetsAndTerm(t *testing.T) {
	f := buildMini(t)
	entry := f.Entry()
	term := entry.Term()
	if term == nil || term.Op != OpCBr {
		t.Fatal("entry terminator")
	}
	tg := term.Targets()
	if len(tg) != 2 || tg[0] != "big" || tg[1] != "small" {
		t.Fatalf("targets = %v", tg)
	}
	jmp := Instr{Op: OpJmp, Dst: NoReg, Then: "x"}
	if got := jmp.Targets(); len(got) != 1 || got[0] != "x" {
		t.Fatal("jmp targets")
	}
	ret := Instr{Op: OpRet, Dst: NoReg}
	if ret.Targets() != nil {
		t.Fatal("ret targets")
	}
}

func TestRegNameAndClass(t *testing.T) {
	f := &Func{Name: "x"}
	r := f.NewReg(ClassInt, "a")
	fl := f.NewReg(ClassFloat, "b")
	if f.RegName(r) != "r0" || f.RegName(fl) != "f1" {
		t.Fatalf("names %q %q", f.RegName(r), f.RegName(fl))
	}
	if f.RegName(NoReg) != "_" {
		t.Fatal("NoReg name")
	}
	if f.RegClass(r) != ClassInt || f.RegClass(fl) != ClassFloat {
		t.Fatal("classes")
	}
	if f.RegClass(Reg(99)) != ClassNone || f.RegClass(NoReg) != ClassNone {
		t.Fatal("out-of-range class")
	}
}

func TestRenumber(t *testing.T) {
	f := buildMini(t)
	f.Blocks[0], f.Blocks[2] = f.Blocks[2], f.Blocks[0]
	f.Renumber()
	for i, b := range f.Blocks {
		if b.Index != i {
			t.Fatalf("block %s index %d at position %d", b.Name, b.Index, i)
		}
	}
}

func TestClassString(t *testing.T) {
	if ClassInt.String() != "int" || ClassFloat.String() != "float" || ClassNone.String() != "none" {
		t.Fatal("class strings")
	}
}
