package sim

import (
	"fmt"
	"math"

	"ccmem/internal/ir"
)

type execState struct {
	m      *Machine
	mem    []uint64 // words [0, len) of memory; the rest reads 0 until stored
	ccm    []uint64
	st     *Stats
	fstats []FuncStats // this run's per-function counters, by rfunc.idx
	frames []frame
	sp     int64           // next free stack byte
	limit  int64           // first byte past addressable memory
	done   <-chan struct{} // context cancellation; nil when not cancellable
	ret    Value
	hasRet bool

	regWords int // register words the live frames hold
}

func (ex *execState) fault(fr *frame, format string, args ...any) error {
	return ex.faultKind(fr, FaultSemantic, format, args...)
}

func (ex *execState) faultKind(fr *frame, kind FaultKind, format string, args ...any) error {
	block := "?"
	if int(fr.pc) < len(fr.fn.blockOf) {
		block = fr.fn.blockOf[fr.pc]
	}
	return &Fault{
		Func:  fr.fn.f.Name,
		Block: block,
		Msg:   fmt.Sprintf(format, args...),
		Kind:  kind,
	}
}

// cancelled polls the context's done channel; block boundaries call it so
// a cancelled run unwinds within one basic block plus one instruction.
func (ex *execState) cancelled() bool {
	if ex.done == nil {
		return false
	}
	select {
	case <-ex.done:
		return true
	default:
		return false
	}
}

func (ex *execState) checkAddr(fr *frame, addr int64) error {
	if addr < ir.WordBytes || addr+ir.WordBytes > ex.limit {
		return ex.fault(fr, "memory access at %d outside [8, %d)", addr, ex.limit)
	}
	if addr%ir.WordBytes != 0 {
		return ex.fault(fr, "unaligned memory access at %d", addr)
	}
	return nil
}

// load reads the word at an address checkAddr accepted. A word past the
// end of mem has never been stored to, so it reads 0.
func (ex *execState) load(addr int64) uint64 {
	if w := addr / ir.WordBytes; w < int64(len(ex.mem)) {
		return ex.mem[w]
	}
	return 0
}

// store writes the word at an address checkAddr accepted, first doubling
// mem (capped at limit) until it covers the address.
func (ex *execState) store(addr int64, v uint64) {
	w := addr / ir.WordBytes
	if w >= int64(len(ex.mem)) {
		n := max(2*int64(len(ex.mem)), w+1)
		grown := make([]uint64, min(n, ex.limit/ir.WordBytes))
		copy(grown, ex.mem)
		ex.mem = grown
	}
	ex.mem[w] = v
}

// run drives the interpreter from an initial frame until the outermost
// return. It is a single flat loop over pre-resolved instructions; calls
// push frames, returns pop them.
func (ex *execState) run(f0 frame) error {
	cfg := &ex.m.cfg
	st := ex.st
	ex.frames = append(ex.frames, f0)
	steps := int64(0)

	for len(ex.frames) > 0 {
		fr := &ex.frames[len(ex.frames)-1]
		code := fr.fn.code
		regs := fr.regs
		fstats := &ex.fstats[fr.fn.idx]

	inner:
		for {
			if int(fr.pc) >= len(code) {
				return ex.faultAt(fr, "fell off the end of function")
			}
			in := &code[fr.pc]
			steps++
			if steps > cfg.MaxSteps {
				return ex.faultKind(fr, FaultLimit, "instruction budget exhausted (%d)", cfg.MaxSteps)
			}
			if cfg.Trace != nil && steps <= cfg.TraceLimit {
				fmt.Fprintf(cfg.Trace, "%s %s\t%s\n",
					fr.fn.f.Name, fr.fn.blockOf[fr.pc], fr.fn.f.FormatInstr(fr.fn.src[fr.pc]))
			}
			st.Instrs++
			fstats.Instrs++
			cost := 1
			isMem := false

			switch in.op {
			case ir.OpNop:
			case ir.OpLoadI:
				regs[in.dst] = uint64(in.imm)
			case ir.OpLoadF:
				regs[in.dst] = math.Float64bits(in.fimm)

			case ir.OpAdd:
				regs[in.dst] = uint64(int64(regs[in.a0]) + int64(regs[in.a1]))
			case ir.OpSub:
				regs[in.dst] = uint64(int64(regs[in.a0]) - int64(regs[in.a1]))
			case ir.OpMul:
				regs[in.dst] = uint64(int64(regs[in.a0]) * int64(regs[in.a1]))
			case ir.OpDiv:
				d := int64(regs[in.a1])
				if d == 0 {
					return ex.faultAt(fr, "integer divide by zero")
				}
				regs[in.dst] = uint64(int64(regs[in.a0]) / d)
			case ir.OpRem:
				d := int64(regs[in.a1])
				if d == 0 {
					return ex.faultAt(fr, "integer remainder by zero")
				}
				regs[in.dst] = uint64(int64(regs[in.a0]) % d)
			case ir.OpAnd:
				regs[in.dst] = regs[in.a0] & regs[in.a1]
			case ir.OpOr:
				regs[in.dst] = regs[in.a0] | regs[in.a1]
			case ir.OpXor:
				regs[in.dst] = regs[in.a0] ^ regs[in.a1]
			case ir.OpShl:
				regs[in.dst] = uint64(int64(regs[in.a0]) << (regs[in.a1] & 63))
			case ir.OpShr:
				regs[in.dst] = uint64(int64(regs[in.a0]) >> (regs[in.a1] & 63))
			case ir.OpNeg:
				regs[in.dst] = uint64(-int64(regs[in.a0]))
			case ir.OpNot:
				regs[in.dst] = ^regs[in.a0]

			case ir.OpCmpLT:
				regs[in.dst] = b2w(int64(regs[in.a0]) < int64(regs[in.a1]))
			case ir.OpCmpLE:
				regs[in.dst] = b2w(int64(regs[in.a0]) <= int64(regs[in.a1]))
			case ir.OpCmpGT:
				regs[in.dst] = b2w(int64(regs[in.a0]) > int64(regs[in.a1]))
			case ir.OpCmpGE:
				regs[in.dst] = b2w(int64(regs[in.a0]) >= int64(regs[in.a1]))
			case ir.OpCmpEQ:
				regs[in.dst] = b2w(regs[in.a0] == regs[in.a1])
			case ir.OpCmpNE:
				regs[in.dst] = b2w(regs[in.a0] != regs[in.a1])

			case ir.OpFAdd:
				regs[in.dst] = math.Float64bits(f64(regs[in.a0]) + f64(regs[in.a1]))
			case ir.OpFSub:
				regs[in.dst] = math.Float64bits(f64(regs[in.a0]) - f64(regs[in.a1]))
			case ir.OpFMul:
				regs[in.dst] = math.Float64bits(f64(regs[in.a0]) * f64(regs[in.a1]))
			case ir.OpFDiv:
				regs[in.dst] = math.Float64bits(f64(regs[in.a0]) / f64(regs[in.a1]))
			case ir.OpFNeg:
				regs[in.dst] = math.Float64bits(-f64(regs[in.a0]))
			case ir.OpFAbs:
				regs[in.dst] = math.Float64bits(math.Abs(f64(regs[in.a0])))
			case ir.OpFSqrt:
				regs[in.dst] = math.Float64bits(math.Sqrt(f64(regs[in.a0])))

			case ir.OpFCmpLT:
				regs[in.dst] = b2w(f64(regs[in.a0]) < f64(regs[in.a1]))
			case ir.OpFCmpLE:
				regs[in.dst] = b2w(f64(regs[in.a0]) <= f64(regs[in.a1]))
			case ir.OpFCmpGT:
				regs[in.dst] = b2w(f64(regs[in.a0]) > f64(regs[in.a1]))
			case ir.OpFCmpGE:
				regs[in.dst] = b2w(f64(regs[in.a0]) >= f64(regs[in.a1]))
			case ir.OpFCmpEQ:
				regs[in.dst] = b2w(f64(regs[in.a0]) == f64(regs[in.a1]))
			case ir.OpFCmpNE:
				regs[in.dst] = b2w(f64(regs[in.a0]) != f64(regs[in.a1]))

			case ir.OpI2F:
				regs[in.dst] = math.Float64bits(float64(int64(regs[in.a0])))
			case ir.OpF2I:
				regs[in.dst] = uint64(truncF2I(f64(regs[in.a0])))

			case ir.OpCopy, ir.OpFCopy:
				regs[in.dst] = regs[in.a0]

			case ir.OpAddr:
				regs[in.dst] = uint64(in.imm) // absolute, pre-resolved

			case ir.OpLoad, ir.OpFLoad:
				addr := int64(regs[in.a0])
				if err := ex.checkAddr(fr, addr); err != nil {
					return err
				}
				regs[in.dst] = ex.load(addr)
				cost, isMem = ex.memCost(addr, false), true
				st.OrdinaryLoads++
				st.MainMemOps++
			case ir.OpLoadAI, ir.OpFLoadAI:
				addr := int64(regs[in.a0]) + in.imm
				if err := ex.checkAddr(fr, addr); err != nil {
					return err
				}
				regs[in.dst] = ex.load(addr)
				cost, isMem = ex.memCost(addr, false), true
				st.OrdinaryLoads++
				st.MainMemOps++
			case ir.OpStore, ir.OpFStore:
				addr := int64(regs[in.a1])
				if err := ex.checkAddr(fr, addr); err != nil {
					return err
				}
				ex.store(addr, regs[in.a0])
				cost, isMem = ex.memCost(addr, true), true
				st.OrdinaryStores++
				st.MainMemOps++
			case ir.OpStoreAI, ir.OpFStoreAI:
				addr := int64(regs[in.a1]) + in.imm
				if err := ex.checkAddr(fr, addr); err != nil {
					return err
				}
				ex.store(addr, regs[in.a0])
				cost, isMem = ex.memCost(addr, true), true
				st.OrdinaryStores++
				st.MainMemOps++

			case ir.OpSpill, ir.OpFSpill:
				addr := fr.base + in.imm
				if err := ex.checkAddr(fr, addr); err != nil {
					return err
				}
				ex.store(addr, regs[in.a0])
				cost, isMem = ex.memCost(addr, true), true
				st.SpillStores++
				st.MainMemOps++
			case ir.OpRestore, ir.OpFRestore:
				addr := fr.base + in.imm
				if err := ex.checkAddr(fr, addr); err != nil {
					return err
				}
				regs[in.dst] = ex.load(addr)
				cost, isMem = ex.memCost(addr, false), true
				st.SpillLoads++
				st.MainMemOps++

			case ir.OpCCMSpill, ir.OpCCMFSpill:
				slot, err := ex.ccmSlot(fr, in.imm)
				if err != nil {
					return err
				}
				ex.ccm[slot] = regs[in.a0]
				cost, isMem = cfg.CCMCost, true
				st.CCMOps++
				st.CCMSpills++
			case ir.OpCCMRestore, ir.OpCCMFRestore:
				slot, err := ex.ccmSlot(fr, in.imm)
				if err != nil {
					return err
				}
				regs[in.dst] = ex.ccm[slot]
				cost, isMem = cfg.CCMCost, true
				st.CCMRestores++
				st.CCMOps++

			case ir.OpJmp:
				if ex.cancelled() {
					return ex.faultKind(fr, FaultCancelled, "execution cancelled")
				}
				st.Cycles++
				fstats.Cycles++
				fr.pc = in.t0
				continue inner
			case ir.OpCBr:
				if ex.cancelled() {
					return ex.faultKind(fr, FaultCancelled, "execution cancelled")
				}
				st.Cycles++
				fstats.Cycles++
				if regs[in.a0] != 0 {
					fr.pc = in.t0
				} else {
					fr.pc = in.t1
				}
				continue inner

			case ir.OpCall:
				if ex.cancelled() {
					return ex.faultKind(fr, FaultCancelled, "execution cancelled")
				}
				st.Cycles++
				fstats.Cycles++
				callee := in.callee
				if len(ex.frames) >= cfg.MaxDepth {
					return ex.faultKind(fr, FaultLimit, "call depth limit %d exceeded", cfg.MaxDepth)
				}
				if ex.sp+callee.frameBytes > ex.limit {
					return ex.faultKind(fr, FaultLimit, "stack overflow: %d bytes needed", callee.frameBytes)
				}
				if ex.regWords+callee.nregs > maxRegWords {
					return ex.faultKind(fr, FaultLimit, "register limit: live frames would hold more than %d register words", maxRegWords)
				}
				ex.regWords += callee.nregs
				nf := frame{
					fn:     callee,
					regs:   make([]uint64, callee.nregs),
					base:   ex.sp,
					retDst: in.dst,
				}
				ex.sp += callee.frameBytes
				for i, p := range callee.f.Params {
					nf.regs[p] = regs[in.args[i]]
				}
				ex.fstats[callee.idx].Calls++
				fr.pc++
				ex.frames = append(ex.frames, nf)
				break inner

			case ir.OpRet:
				st.Cycles++
				fstats.Cycles++
				var rv uint64
				hasRV := in.a0 != ir.NoReg
				if hasRV {
					rv = regs[in.a0]
				}
				ex.sp = fr.base
				ex.regWords -= fr.fn.nregs
				retDst := fr.retDst
				ex.frames = ex.frames[:len(ex.frames)-1]
				if len(ex.frames) == 0 {
					if hasRV {
						ex.ret = Value{IsFloat: fr.fn.f.RetClass == ir.ClassFloat, Bits: rv}
						ex.hasRet = true
					}
					return nil
				}
				if retDst != ir.NoReg {
					if !hasRV {
						return ex.faultAt(fr, "void return into a result register")
					}
					caller := &ex.frames[len(ex.frames)-1]
					caller.regs[retDst] = rv
				}
				break inner

			case ir.OpEmit:
				st.Output = append(st.Output, Value{Bits: regs[in.a0]})
			case ir.OpFEmit:
				st.Output = append(st.Output, Value{IsFloat: true, Bits: regs[in.a0]})

			default:
				return ex.faultAt(fr, "unexecutable opcode %s", in.op)
			}

			st.Cycles += int64(cost)
			fstats.Cycles += int64(cost)
			if isMem {
				st.MemOpCycles += int64(cost)
				fstats.MemOpCycles += int64(cost)
			}
			fr.pc++
		}
	}
	return nil
}

func (ex *execState) faultAt(fr *frame, format string, args ...any) error {
	return ex.fault(fr, format, args...)
}

func (ex *execState) memCost(addr int64, store bool) int {
	if ex.m.cfg.Memory != nil {
		return ex.m.cfg.Memory.Access(addr, store)
	}
	return ex.m.cfg.MemCost
}

func (ex *execState) ccmSlot(fr *frame, off int64) (int64, error) {
	eff := ex.m.cfg.CCMBase + off
	if ex.ccm == nil {
		return 0, ex.fault(fr, "CCM access at %d but no CCM configured", off)
	}
	if eff < 0 || eff+ir.WordBytes > ex.m.cfg.CCMBytes {
		return 0, ex.fault(fr, "CCM access at %d (base %d) outside %d-byte CCM",
			off, ex.m.cfg.CCMBase, ex.m.cfg.CCMBytes)
	}
	if eff%ir.WordBytes != 0 {
		return 0, ex.fault(fr, "unaligned CCM access at %d", eff)
	}
	return eff / ir.WordBytes, nil
}

func b2w(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func f64(bits uint64) float64 { return math.Float64frombits(bits) }

// truncF2I converts float to int with saturating, NaN-to-zero semantics so
// that behaviour is deterministic across pipeline stages.
func truncF2I(f float64) int64 {
	switch {
	case math.IsNaN(f):
		return 0
	case f >= math.MaxInt64:
		return math.MaxInt64
	case f <= math.MinInt64:
		return math.MinInt64
	default:
		return int64(f)
	}
}
