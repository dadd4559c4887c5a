// Package sim executes ILOC programs on the paper's abstract machine and
// reports instrumented dynamic costs. It is the reproduction's stand-in
// for the paper's back-end, which translated ILOC to heavily instrumented
// C; the published numbers are instruction/cycle counters under the stated
// model, which an interpreter reproduces exactly (paper §4):
//
//   - single issue, one instruction per cycle;
//   - main-memory operations cost MemCost cycles (2 in the paper);
//   - every other instruction, including CCM accesses, costs 1 cycle;
//   - the CCM is a small random-access memory in a disjoint address space.
//
// "Cycles spent in memory operations" counts every load/store-class
// instruction at its cost, CCM operations included — the accounting that
// matches the paper's paired (total, memory) ratios.
package sim

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"

	"ccmem/internal/ir"
	"ccmem/internal/memsys"
)

// Value is one machine word plus its interpretation, used for the
// observable output trace (emit/femit).
type Value struct {
	IsFloat bool
	Bits    uint64
}

// IntValue wraps an integer word.
func IntValue(v int64) Value { return Value{Bits: uint64(v)} }

// FloatValue wraps a float word.
func FloatValue(v float64) Value { return Value{IsFloat: true, Bits: math.Float64bits(v)} }

// Int returns the word as an integer.
func (v Value) Int() int64 { return int64(v.Bits) }

// Float returns the word as a float.
func (v Value) Float() float64 { return math.Float64frombits(v.Bits) }

func (v Value) String() string {
	if v.IsFloat {
		return fmt.Sprintf("%g", v.Float())
	}
	return fmt.Sprintf("%d", v.Int())
}

// TracesEqual compares two output traces exactly (bit-level).
func TracesEqual(a, b []Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// DefaultMaxDepth is the call-depth limit of a Config that sets none.
const DefaultMaxDepth = 4096

// maxRegWords bounds the register words the live frames of a run hold
// together. Each call allocates a table as long as its callee's highest
// register, so without it DefaultMaxDepth frames of a function naming
// r65535 would hold 2 GiB. The suite, the oracle and the served
// programs of the serve-zipf benchmark reach at most 3,602 words.
const maxRegWords = 1 << 22

// Address-space bounds, in 8-byte words. Every run gets a stack of
// stackWords words above the globals; New rejects a program whose trap
// word, globals and stack together exceed maxMemWords.
const (
	stackWords  = 1 << 16
	maxMemWords = 1 << 24
)

// MaxCCMBytes is the largest CCM New accepts: the CCM is allocated whole
// on every run, so it is held to the main-memory cap.
const MaxCCMBytes = maxMemWords * ir.WordBytes

// ErrAddressSpace is wrapped by New's error for a program whose globals
// do not fit the address space, or for a CCM larger than MaxCCMBytes:
// the program or its configuration, not the run, is at fault.
var ErrAddressSpace = errors.New("exceeds the simulated address space")

// Config parameterizes one run.
type Config struct {
	MemCost  int          // cycles per main-memory op; default 2
	CCMCost  int          // cycles per CCM op; default 1
	CCMBytes int64        // CCM capacity; 0 means no CCM present
	CCMBase  int64        // per-process base offset into the CCM (§2.1)
	MaxSteps int64        // dynamic instruction budget; default 500M
	MaxDepth int          // call-depth limit; default DefaultMaxDepth
	Memory   memsys.Model // optional pricing model for main memory

	// Trace, when non-nil, receives one line per executed instruction
	// ("func block\tinstruction") — a debugging aid; TraceLimit bounds the
	// number of lines (default 10000 when tracing).
	Trace      io.Writer
	TraceLimit int64

	// Err carries a configuration error from an option constructor that
	// has no error return of its own (e.g. a malformed cache config); New
	// reports it instead of running.
	Err error
}

// WithDefaults returns c with every zero field that has a default set to
// it, as New applies them.
func (c Config) WithDefaults() Config {
	if c.MemCost == 0 {
		c.MemCost = 2
	}
	if c.CCMCost == 0 {
		c.CCMCost = 1
	}
	if c.MaxSteps == 0 {
		c.MaxSteps = 500_000_000
	}
	if c.MaxDepth == 0 {
		c.MaxDepth = DefaultMaxDepth
	}
	if c.Trace != nil && c.TraceLimit == 0 {
		c.TraceLimit = 10000
	}
	return c
}

// FuncStats is the per-function exclusive cost attribution (the paper's
// Tables 2 and 3 report per-routine dynamic cycles).
type FuncStats struct {
	Calls       int64
	Instrs      int64
	Cycles      int64
	MemOpCycles int64
}

// Stats is the instrumented result of a run.
type Stats struct {
	Instrs      int64
	Cycles      int64
	MemOpCycles int64 // cycles in load/store-class ops, CCM included

	MainMemOps     int64
	CCMOps         int64
	SpillStores    int64 // heavyweight spill stores executed
	SpillLoads     int64 // heavyweight restores executed
	CCMSpills      int64
	CCMRestores    int64
	OrdinaryLoads  int64 // program loads (non-spill)
	OrdinaryStores int64

	PerFunc map[string]*FuncStats
	Output  []Value

	// Ret is the entry function's return value, if it has one.
	Ret    Value
	HasRet bool
}

// FaultKind classifies a runtime fault. The distinction matters to the
// differential-execution oracle (internal/oracle): two semantically
// identical programs must fault together or not at all, but a resource
// limit (fuel, call depth, cancellation) says nothing about semantics —
// a transformed program legitimately executes a different number of
// instructions, so limit faults are inconclusive rather than divergent.
type FaultKind int

const (
	// FaultSemantic is a genuine runtime error the program itself caused:
	// out-of-bounds or unaligned access, divide by zero, a bad return.
	FaultSemantic FaultKind = iota
	// FaultLimit is a resource bound imposed by the configuration: the
	// instruction budget (MaxSteps), the call-depth limit (MaxDepth),
	// stack exhaustion, or live frames whose register tables outgrow
	// their bound.
	FaultLimit
	// FaultCancelled is a cooperative stop: the context passed to
	// RunContext was cancelled and the interpreter unwound at the next
	// block boundary.
	FaultCancelled
)

func (k FaultKind) String() string {
	switch k {
	case FaultSemantic:
		return "semantic"
	case FaultLimit:
		return "limit"
	case FaultCancelled:
		return "cancelled"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// Fault describes a runtime error with source context.
type Fault struct {
	Func  string
	Block string
	Msg   string
	Kind  FaultKind
}

func (f *Fault) Error() string {
	return fmt.Sprintf("sim: fault in %s (block %s): %s", f.Func, f.Block, f.Msg)
}

type rinstr struct {
	op     ir.Op
	dst    ir.Reg
	a0, a1 ir.Reg
	imm    int64
	fimm   float64
	t0, t1 int32
	args   []ir.Reg // call arguments
	callee *rfunc
}

type rfunc struct {
	f          *ir.Func
	idx        int // index into a run's per-function stats
	code       []rinstr
	blockOf    []string    // diagnostic: instr index -> block label
	src        []*ir.Instr // diagnostic: instr index -> source instruction
	nregs      int
	frameBytes int64
}

// Machine is a resolved program ready to run; resolving once lets tests
// and benchmarks execute many times without re-walking the IR.
type Machine struct {
	cfg        Config
	prog       *ir.Program
	funcs      map[string]*rfunc
	globalBase map[string]int64
	globalEnd  int64 // first byte past the global region
	memWords   int64 // addressable words: trap word, globals and stack
}

// Validate reports the error New returns for cfg whatever the program.
func (c Config) Validate() error {
	if c.Err != nil {
		return fmt.Errorf("sim: %w", c.Err)
	}
	if c.CCMBytes%ir.WordBytes != 0 || c.CCMBytes < 0 {
		return fmt.Errorf("sim: CCMBytes %d must be a non-negative multiple of %d", c.CCMBytes, ir.WordBytes)
	}
	if c.CCMBytes > MaxCCMBytes {
		return fmt.Errorf("sim: CCMBytes %d %w (%d bytes)", c.CCMBytes, ErrAddressSpace, MaxCCMBytes)
	}
	return nil
}

// New resolves a program against a configuration. The program must be
// phi-free and structurally valid (run ir.VerifyProgram first).
func New(p *ir.Program, cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.WithDefaults()
	m := &Machine{cfg: cfg, prog: p, funcs: map[string]*rfunc{}, globalBase: map[string]int64{}}

	// Lay out globals from byte 8 upward (0 is the trap page). Sizes are
	// compared in words before any byte arithmetic, so no declared size
	// can overflow the layout or reach the allocator unbounded.
	words := int64(1)
	for _, g := range p.Globals {
		if g.Words < 0 || int64(g.Words) > maxMemWords-stackWords-words {
			return nil, fmt.Errorf("sim: global %s (%d words) with the stack %w (%d words)", g.Name, g.Words, ErrAddressSpace, maxMemWords)
		}
		m.globalBase[g.Name] = words * ir.WordBytes
		words += int64(g.Words)
	}
	m.globalEnd = words * ir.WordBytes
	m.memWords = words + stackWords

	for i, f := range p.Funcs {
		m.funcs[f.Name] = &rfunc{f: f, idx: i, nregs: len(f.Regs)}
	}
	for _, f := range p.Funcs {
		if err := m.resolveFunc(m.funcs[f.Name]); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// resolveFunc lowers f's instructions for the interpreter. It refuses
// what the interpreter would index out of range — an unknown label,
// global or callee, an operand count other than the opcode's fixed arity,
// and a parameter, destination or operand register outside f's register
// table — so a malformed program that reaches New unverified (a decoded
// cache entry is not re-verified) is an error, never a panic. It refuses
// a ret whose operands disagree with f's return class too, which would
// otherwise run as a void return and yield a wrong result.
func (m *Machine) resolveFunc(rf *rfunc) error {
	f := rf.f
	inRange := func(r ir.Reg) bool { return r >= 0 && int(r) < rf.nregs }
	for _, p := range f.Params {
		if !inRange(p) {
			return fmt.Errorf("sim: func %s: parameter register %d outside its %d registers", f.Name, p, rf.nregs)
		}
	}
	blockStart := map[string]int32{}
	n := 0
	for _, b := range f.Blocks {
		blockStart[b.Name] = int32(n)
		n += len(b.Instrs)
	}
	rf.code = make([]rinstr, 0, n)
	rf.blockOf = make([]string, 0, n)
	rf.src = make([]*ir.Instr, 0, n)
	maxSpill := int64(0)
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.OpPhi {
				return fmt.Errorf("sim: func %s: phi instructions cannot be executed", f.Name)
			}
			if want := in.Op.NumArgs(); want >= 0 && len(in.Args) != want {
				return fmt.Errorf("sim: func %s: %s has %d operands, want %d", f.Name, in.Op, len(in.Args), want)
			}
			// An op with a result class writes its destination; a call
			// writes one unless it is NoReg.
			writesDst := in.Op.DstClass() != ir.ClassNone || (in.Op == ir.OpCall && in.Dst != ir.NoReg)
			if writesDst && !inRange(in.Dst) {
				return fmt.Errorf("sim: func %s: %s destination register %d outside its %d registers", f.Name, in.Op, in.Dst, rf.nregs)
			}
			for _, a := range in.Args {
				if !inRange(a) {
					return fmt.Errorf("sim: func %s: %s operand register %d outside its %d registers", f.Name, in.Op, a, rf.nregs)
				}
			}
			ri := rinstr{op: in.Op, dst: in.Dst, a0: ir.NoReg, a1: ir.NoReg, imm: in.Imm, fimm: in.FImm, t0: -1, t1: -1}
			switch in.Op {
			case ir.OpCall:
				callee, ok := m.funcs[in.Sym]
				if !ok {
					return fmt.Errorf("sim: func %s: call to unknown function %q", f.Name, in.Sym)
				}
				if len(in.Args) != len(callee.f.Params) {
					return fmt.Errorf("sim: func %s: call %s arity mismatch", f.Name, in.Sym)
				}
				ri.callee = callee
				ri.args = in.Args
			case ir.OpRet:
				// As ir.VerifyFunc requires: a value exactly when f
				// returns one.
				switch {
				case len(in.Args) > 1:
					return fmt.Errorf("sim: func %s: ret has %d operands, want at most 1", f.Name, len(in.Args))
				case f.RetClass == ir.ClassNone && len(in.Args) == 1:
					return fmt.Errorf("sim: func %s: ret with value in void function", f.Name)
				case f.RetClass != ir.ClassNone && len(in.Args) == 0:
					return fmt.Errorf("sim: func %s: ret without value in a function returning %s", f.Name, f.RetClass)
				}
				if len(in.Args) == 1 {
					ri.a0 = in.Args[0]
				}
			case ir.OpJmp:
				t, ok := blockStart[in.Then]
				if !ok {
					return fmt.Errorf("sim: func %s: jmp to unknown label %q", f.Name, in.Then)
				}
				ri.t0 = t
			case ir.OpCBr:
				t, ok := blockStart[in.Then]
				if !ok {
					return fmt.Errorf("sim: func %s: cbr to unknown label %q", f.Name, in.Then)
				}
				e, ok := blockStart[in.Else]
				if !ok {
					return fmt.Errorf("sim: func %s: cbr to unknown label %q", f.Name, in.Else)
				}
				ri.a0, ri.t0, ri.t1 = in.Args[0], t, e
			case ir.OpAddr:
				base, ok := m.globalBase[in.Sym]
				if !ok {
					return fmt.Errorf("sim: func %s: addr of unknown global %q", f.Name, in.Sym)
				}
				ri.imm = base + in.Imm // pre-resolve to an absolute address
			default:
				if len(in.Args) > 0 {
					ri.a0 = in.Args[0]
				}
				if len(in.Args) > 1 {
					ri.a1 = in.Args[1]
				}
			}
			switch in.Op {
			case ir.OpSpill, ir.OpFSpill, ir.OpRestore, ir.OpFRestore:
				if in.Imm+ir.WordBytes > maxSpill {
					maxSpill = in.Imm + ir.WordBytes
				}
			}
			rf.code = append(rf.code, ri)
			rf.blockOf = append(rf.blockOf, b.Name)
			rf.src = append(rf.src, in)
		}
	}
	rf.frameBytes = f.FrameBytes
	if maxSpill > rf.frameBytes {
		rf.frameBytes = maxSpill
	}
	return nil
}

type frame struct {
	fn     *rfunc
	pc     int32
	regs   []uint64
	base   int64 // activation-record base (byte address)
	retDst ir.Reg
}

// Run executes entry(args...) and returns the instrumented statistics.
func (m *Machine) Run(entry string, args ...Value) (*Stats, error) {
	return m.RunContext(context.Background(), entry, args...)
}

// RunContext is Run with cooperative cancellation: the context is checked
// at block boundaries (branches and calls), so a nonterminating program —
// straight-line stretches are already bounded by MaxSteps — unwinds into
// a structured *Fault of kind FaultCancelled instead of hanging its
// goroutine. Combined with MaxSteps and MaxDepth this makes every
// execution bounded: fuel, depth, and wall-clock (via a deadline context).
func (m *Machine) RunContext(ctx context.Context, entry string, args ...Value) (*Stats, error) {
	rf, ok := m.funcs[entry]
	if !ok {
		return nil, fmt.Errorf("sim: no function %q", entry)
	}
	if len(args) != len(rf.f.Params) {
		return nil, fmt.Errorf("sim: %s wants %d arguments, got %d", entry, len(rf.f.Params), len(args))
	}
	if m.cfg.Memory != nil {
		m.cfg.Memory.Reset()
	}

	// Memory starts as the globals plus the entry frame and grows on
	// store (execState.store); the untouched rest of the stack reads 0.
	entryFrame := min(rf.frameBytes, stackWords*ir.WordBytes)
	mem := make([]uint64, (m.globalEnd+entryFrame+ir.WordBytes-1)/ir.WordBytes)
	a := int64(ir.WordBytes) / ir.WordBytes
	for _, g := range m.prog.Globals {
		copy(mem[a:a+int64(g.Words)], g.Init)
		a += int64(g.Words)
	}
	var ccm []uint64
	if m.cfg.CCMBytes > 0 {
		ccm = make([]uint64, m.cfg.CCMBytes/ir.WordBytes)
	}

	// Each run owns its counters, so a later run on this Machine cannot
	// rewrite the Stats an earlier one returned.
	fstats := make([]FuncStats, len(m.prog.Funcs))
	st := &Stats{PerFunc: make(map[string]*FuncStats, len(m.funcs))}
	for name, frf := range m.funcs {
		st.PerFunc[name] = &fstats[frf.idx]
	}

	ex := &execState{
		m:      m,
		mem:    mem,
		ccm:    ccm,
		st:     st,
		fstats: fstats,
		sp:     m.globalEnd,
		limit:  m.memWords * ir.WordBytes,
		done:   ctx.Done(),
	}
	f0 := frame{fn: rf, regs: make([]uint64, rf.nregs), base: ex.sp, retDst: ir.NoReg}
	ex.regWords = rf.nregs
	ex.sp += rf.frameBytes
	for i, p := range rf.f.Params {
		if rf.f.RegClass(p) == ir.ClassFloat != args[i].IsFloat {
			return nil, fmt.Errorf("sim: %s argument %d class mismatch", entry, i)
		}
		f0.regs[p] = args[i].Bits
	}
	fstats[rf.idx].Calls++
	if err := ex.run(f0); err != nil {
		return st, err
	}
	if ex.hasRet {
		st.Ret, st.HasRet = ex.ret, true
	}
	return st, nil
}

// Run resolves and executes in one step (convenience for tests).
func Run(p *ir.Program, entry string, cfg Config, args ...Value) (*Stats, error) {
	m, err := New(p, cfg)
	if err != nil {
		return nil, err
	}
	return m.Run(entry, args...)
}
