package ir

import (
	"strings"
	"testing"
)

// finishErr builds a minimal terminated function around the mutation fn
// and returns the deferred construction error, if any.
func finishErr(t *testing.T, fn func(b *Builder)) error {
	t.Helper()
	b := NewBuilder("f", ClassNone)
	b.Label("entry")
	fn(b)
	if b.Err() == nil {
		b.Ret()
	}
	_, err := b.Finish()
	return err
}

func TestBuilderRejectsForeignRegister(t *testing.T) {
	other := NewBuilder("g", ClassInt)
	ghost := other.Reg(ClassInt, "ghost")
	for i := 0; i < 40; i++ {
		other.Reg(ClassInt, "")
	}

	err := finishErr(t, func(b *Builder) {
		// ghost is r0, which f also has once one register exists; use an
		// out-of-range id instead to model a register of another function.
		bad := ghost + 100
		b.Append(Instr{Op: OpNeg, Dst: b.Reg(ClassInt, ""), Args: []Reg{bad}})
	})
	if err == nil || !strings.Contains(err.Error(), "not a register") {
		t.Fatalf("foreign register not rejected: %v", err)
	}
}

func TestBuilderRejectsClassMismatch(t *testing.T) {
	err := finishErr(t, func(b *Builder) {
		x := b.ConstF(1.5)
		y := b.ConstI(2)
		b.Append(Instr{Op: OpAdd, Dst: b.Reg(ClassInt, ""), Args: []Reg{x, y}})
	})
	if err == nil || !strings.Contains(err.Error(), "want int") {
		t.Fatalf("float arg to add not rejected: %v", err)
	}
}

func TestBuilderRejectsArityMismatch(t *testing.T) {
	err := finishErr(t, func(b *Builder) {
		x := b.ConstI(1)
		b.Append(Instr{Op: OpAdd, Dst: b.Reg(ClassInt, ""), Args: []Reg{x}})
	})
	if err == nil || !strings.Contains(err.Error(), "wants 2 args") {
		t.Fatalf("unary add not rejected: %v", err)
	}
}

func TestBuilderRejectsUndefinedBranchTarget(t *testing.T) {
	b := NewBuilder("f", ClassNone)
	b.Label("entry")
	b.Jmp("nowhere")
	_, err := b.Finish()
	if err == nil || !strings.Contains(err.Error(), "undefined label") {
		t.Fatalf("dangling branch target not rejected: %v", err)
	}
}

func TestBuilderErrStopsEarlyAndFirstErrorWins(t *testing.T) {
	b := NewBuilder("f", ClassNone)
	b.Label("entry")
	x := b.ConstF(1)
	b.Add(x, x) // first failure: float args to an int op
	if b.Err() == nil {
		t.Fatal("Err is nil after a malformed instruction")
	}
	first := b.Err().Error()
	b.At("nope") // would be a second failure
	if got := b.Err().Error(); got != first {
		t.Fatalf("first error was overwritten: %q -> %q", first, got)
	}
	if _, err := b.Finish(); err == nil || err.Error() != first {
		t.Fatalf("Finish error = %v, want the first deferred error %q", err, first)
	}
}

func TestBuilderCleanConstructionStillVerifies(t *testing.T) {
	b := NewBuilder("f", ClassInt)
	n := b.Param(ClassInt, "n")
	b.Label("entry")
	c := b.ConstI(3)
	s := b.Add(n, c)
	cond := b.CmpGT(s, c)
	b.CBr(cond, "big", "small")
	b.Label("big")
	b.RetVal(s)
	b.Label("small")
	b.RetVal(c)
	f, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyFunc(f, VerifyOptions{}); err != nil {
		t.Fatal(err)
	}
}
