package sim

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"ccmem/internal/ir"
)

// mustParse builds a program from source for the fault tables.
func mustParse(t *testing.T, src string) *ir.Program {
	t.Helper()
	p, err := ir.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return p
}

// TestFaultPaths is the table-driven sweep over every structured fault the
// interpreter can raise, asserting the Fault's source attribution
// (Func/Block), message, and kind. A fault must never surface as a bare
// error or a panic: the differential oracle keys off Fault.Kind to tell a
// genuine semantic error from a resource limit.
func TestFaultPaths(t *testing.T) {
	cases := []struct {
		name      string
		src       string
		cfg       Config
		wantFunc  string
		wantBlock string
		wantMsg   string
		wantKind  FaultKind
	}{
		{
			name: "unaligned access",
			src: `func main() {
entry:
	r0 = loadi 12
	r1 = load r0
	ret
}
`,
			wantFunc:  "main",
			wantBlock: "entry",
			wantMsg:   "unaligned memory access at 12",
			wantKind:  FaultSemantic,
		},
		{
			name: "out of bounds low (trap page)",
			src: `func main() {
entry:
	r0 = loadi 0
	r1 = load r0
	ret
}
`,
			wantFunc:  "main",
			wantBlock: "entry",
			wantMsg:   "memory access at 0 outside",
			wantKind:  FaultSemantic,
		},
		{
			name: "out of bounds high",
			src: `func main() {
entry:
	r0 = loadi 1073741824
	r1 = load r0
	ret
}
`,
			wantFunc:  "main",
			wantBlock: "entry",
			wantMsg:   "outside",
			wantKind:  FaultSemantic,
		},
		{
			name: "divide by zero",
			src: `func main() {
entry:
	r0 = loadi 1
	r1 = loadi 0
	r2 = div r0, r1
	ret
}
`,
			wantFunc:  "main",
			wantBlock: "entry",
			wantMsg:   "integer divide by zero",
			wantKind:  FaultSemantic,
		},
		{
			name: "fuel exhausted",
			src: `func main() {
loop:
	jmp loop
}
`,
			cfg:       Config{MaxSteps: 100},
			wantFunc:  "main",
			wantBlock: "loop",
			wantMsg:   "instruction budget exhausted (100)",
			wantKind:  FaultLimit,
		},
		{
			name: "call depth exceeded",
			src: `func rec() {
entry:
	call rec()
	ret
}
func main() {
entry:
	call rec()
	ret
}
`,
			cfg:       Config{MaxDepth: 16},
			wantFunc:  "rec",
			wantBlock: "entry",
			wantMsg:   "call depth limit 16 exceeded",
			wantKind:  FaultLimit,
		},
		{
			name: "ccm access without ccm",
			src: `func main() {
entry:
	r0 = loadi 7
	ccmspill r0, 0
	ret
}
`,
			wantFunc:  "main",
			wantBlock: "entry",
			wantMsg:   "no CCM configured",
			wantKind:  FaultSemantic,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := mustParse(t, tc.src)
			_, err := Run(p, "main", tc.cfg)
			var f *Fault
			if !errors.As(err, &f) {
				t.Fatalf("got %v, want a *Fault", err)
			}
			if f.Func != tc.wantFunc {
				t.Errorf("Fault.Func = %q, want %q", f.Func, tc.wantFunc)
			}
			if f.Block != tc.wantBlock {
				t.Errorf("Fault.Block = %q, want %q", f.Block, tc.wantBlock)
			}
			if !strings.Contains(f.Msg, tc.wantMsg) {
				t.Errorf("Fault.Msg = %q, want it to contain %q", f.Msg, tc.wantMsg)
			}
			if f.Kind != tc.wantKind {
				t.Errorf("Fault.Kind = %v, want %v", f.Kind, tc.wantKind)
			}
		})
	}
}

// TestRunContextCancellation: a pre-cancelled context stops the run at the
// first block boundary with a structured cancellation fault — no hang, no
// partial results treated as success.
func TestRunContextCancellation(t *testing.T) {
	p := mustParse(t, `func main() {
loop:
	jmp loop
}
`)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := func() (*Stats, error) {
		m, err := New(p, Config{})
		if err != nil {
			t.Fatal(err)
		}
		return m.RunContext(ctx, "main")
	}()
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("got %v, want a *Fault", err)
	}
	if f.Kind != FaultCancelled {
		t.Errorf("Fault.Kind = %v, want FaultCancelled", f.Kind)
	}
	if f.Func != "main" || f.Block != "loop" {
		t.Errorf("cancellation fault misattributed: func=%q block=%q", f.Func, f.Block)
	}
}

// TestRunContextDeadline: a nonterminating program under a deadline
// context unwinds promptly instead of burning its full 500M-step default
// fuel — the "nonterminating candidate becomes a structured fault, never a
// hung worker" guarantee the oracle relies on.
func TestRunContextDeadline(t *testing.T) {
	p := mustParse(t, `func main() {
loop:
	jmp loop
}
`)
	m, err := New(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = m.RunContext(ctx, "main")
	var f *Fault
	if !errors.As(err, &f) || f.Kind != FaultCancelled {
		t.Fatalf("got %v, want a FaultCancelled *Fault", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("cancellation took %v", elapsed)
	}
}

// TestRunContextClean: a background context adds no fault to a program
// that terminates normally, and Run remains RunContext(Background).
func TestRunContextClean(t *testing.T) {
	p := mustParse(t, `func main() {
entry:
	r0 = loadi 42
	emit r0
	ret
}
`)
	m, err := New(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.RunContext(context.Background(), "main")
	if err != nil {
		t.Fatalf("clean run faulted: %v", err)
	}
	if len(st.Output) != 1 || st.Output[0].Int() != 42 {
		t.Errorf("output = %v, want [42]", st.Output)
	}
}

// TestNewRefusesMalformedOperands: New refuses every operand the
// interpreter would index out of range, as it refuses unknown labels: a
// program that reaches the simulator unverified, such as a decoded cache
// entry, must fail with an error, never a panic. Each row breaks one
// instruction or parameter of an otherwise runnable two-function program.
func TestNewRefusesMalformedOperands(t *testing.T) {
	// program returns main, whose one block holds body and a ret, and a
	// callee g(r0) that returns r0; each function has two int registers.
	program := func(body ...ir.Instr) *ir.Program {
		regs := []ir.RegInfo{{Class: ir.ClassInt}, {Class: ir.ClassInt}}
		ret := ir.Instr{Op: ir.OpRet, Dst: ir.NoReg}
		main := &ir.Func{Name: "main", Regs: regs, Blocks: []*ir.Block{
			{Name: "entry", Instrs: append(body, ret)},
			{Name: "out", Instrs: []ir.Instr{ret}},
		}}
		g := &ir.Func{Name: "g", Params: []ir.Reg{0}, RetClass: ir.ClassInt, Regs: regs, Blocks: []*ir.Block{
			{Name: "entry", Instrs: []ir.Instr{{Op: ir.OpRet, Dst: ir.NoReg, Args: []ir.Reg{0}}}},
		}}
		return &ir.Program{Funcs: []*ir.Func{main, g}}
	}
	loadi := ir.Instr{Op: ir.OpLoadI, Dst: 0, Imm: 1}
	cases := []struct {
		name string
		p    *ir.Program
		want string
	}{
		{"add without operands", program(loadi, ir.Instr{Op: ir.OpAdd, Dst: 1}),
			"sim: func main: add has 0 operands, want 2"},
		{"cbr without operands", program(ir.Instr{Op: ir.OpCBr, Dst: ir.NoReg, Then: "out", Else: "out"}),
			"sim: func main: cbr has 0 operands, want 1"},
		{"operand past the table", program(loadi, ir.Instr{Op: ir.OpAdd, Dst: 1, Args: []ir.Reg{0, 69}}),
			"sim: func main: add operand register 69 outside its 2 registers"},
		{"destination past the table", program(ir.Instr{Op: ir.OpLoadI, Dst: 2, Imm: 1}),
			"sim: func main: loadi destination register 2 outside its 2 registers"},
		{"destination missing", program(ir.Instr{Op: ir.OpLoadI, Dst: ir.NoReg, Imm: 1}),
			"sim: func main: loadi destination register -1 outside its 2 registers"},
		{"call argument past the table", program(loadi, ir.Instr{Op: ir.OpCall, Dst: 1, Args: []ir.Reg{7}, Sym: "g"}),
			"sim: func main: call operand register 7 outside its 2 registers"},
		{"call result past the table", program(loadi, ir.Instr{Op: ir.OpCall, Dst: 9, Args: []ir.Reg{0}, Sym: "g"}),
			"sim: func main: call destination register 9 outside its 2 registers"},
		{"parameter past the table", func() *ir.Program {
			p := program(loadi, ir.Instr{Op: ir.OpCall, Dst: 1, Args: []ir.Reg{0}, Sym: "g"})
			p.Funcs[1].Params[0] = 3
			return p
		}(), "sim: func g: parameter register 3 outside its 2 registers"},
		{"ret with two operands", func() *ir.Program {
			p := program(loadi, ir.Instr{Op: ir.OpCall, Dst: 1, Args: []ir.Reg{0}, Sym: "g"})
			p.Funcs[1].Blocks[0].Instrs[0].Args = []ir.Reg{0, 1}
			return p
		}(), "sim: func g: ret has 2 operands, want at most 1"},
		{"bare ret in a value function", func() *ir.Program {
			p := program(loadi, ir.Instr{Op: ir.OpCall, Dst: 1, Args: []ir.Reg{0}, Sym: "g"})
			p.Funcs[1].Blocks[0].Instrs[0].Args = nil
			return p
		}(), "sim: func g: ret without value in a function returning int"},
		{"value ret in a void function", func() *ir.Program {
			p := program(loadi)
			p.Funcs[0].Blocks[0].Instrs[1].Args = []ir.Reg{0}
			return p
		}(), "sim: func main: ret with value in void function"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panicked: %v", r)
				}
			}()
			_, err := Run(tc.p, "main", Config{})
			if err == nil || err.Error() != tc.want {
				t.Errorf("got %v, want %q", err, tc.want)
			}
		})
	}
	// The unbroken program runs.
	if _, err := Run(program(loadi, ir.Instr{Op: ir.OpCall, Dst: 1, Args: []ir.Reg{0}, Sym: "g"}), "main", Config{}); err != nil {
		t.Fatalf("the well-formed program: %v", err)
	}
}
