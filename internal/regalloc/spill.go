package regalloc

import (
	"fmt"

	"ccmem/internal/ir"
)

// insertSpills rewrites the function with spill-everywhere code for the
// given live ranges. Each range is first offered a CCM slot (integrated
// mode, paper §3.2): the value v may use slot m only if the interference
// graph has no (v, m) edge, no value already assigned to m in this round
// interferes with v (the paper's footnote-5 side structure), and v is not
// live across any call (the conservative interprocedural rule). Everything
// else gets a fresh activation-record slot.
//
// It returns how many ranges went to the frame and to the CCM.
func (a *allocation) insertSpills(spilled []int) (nFrame, nCCM int, err error) {
	f := a.f

	type location struct {
		ccm bool
		off int64
	}
	locs := make(map[ir.Reg]location, len(spilled))
	// roundAssign[slot] lists ranges assigned to the slot in this round.
	roundAssign := make(map[int][]int)

	for _, v := range spilled {
		if a.noSpill[v] {
			return 0, 0, fmt.Errorf("regalloc: %s: forced to spill unspillable range %s (registers too scarce)",
				f.Name, f.RegName(ir.Reg(v)))
		}
		assigned := false
		if a.ccmSlots > 0 && !a.liveAcrossCall.Has(v) {
			for s := 0; s < a.ccmSlots; s++ {
				if a.matrix.Has(v, a.n+s) {
					continue
				}
				conflict := false
				for _, p := range roundAssign[s] {
					if a.anyMatrix.Has(v, p) {
						conflict = true
						break
					}
				}
				if conflict {
					continue
				}
				roundAssign[s] = append(roundAssign[s], v)
				off := int64(s) * ir.WordBytes
				locs[ir.Reg(v)] = location{ccm: true, off: off}
				if off+ir.WordBytes > f.CCMBytes {
					f.CCMBytes = off + ir.WordBytes
				}
				nCCM++
				assigned = true
				break
			}
		}
		if !assigned {
			locs[ir.Reg(v)] = location{off: f.FrameBytes}
			f.FrameBytes += ir.WordBytes
			nFrame++
		}
	}

	// Rewrite every occurrence. Uses load into a fresh temporary right
	// before the instruction; definitions store from a fresh temporary
	// right after it ("spill everywhere").
	for _, b := range f.Blocks {
		out := make([]ir.Instr, 0, len(b.Instrs))
		for ii := range b.Instrs {
			in := b.Instrs[ii]
			// Restores for spilled uses: one temp per distinct spilled reg.
			var tempFor map[ir.Reg]ir.Reg
			for _, u := range in.Args {
				loc, ok := locs[u]
				if !ok {
					continue
				}
				if tempFor == nil {
					tempFor = map[ir.Reg]ir.Reg{}
				}
				if _, done := tempFor[u]; done {
					continue
				}
				t := f.NewReg(f.RegClass(u), f.Regs[u].Name+".r")
				tempFor[u] = t
				var op ir.Op
				if loc.ccm {
					_, op = ir.CCMOpFor(f.RegClass(u))
				} else {
					_, op = ir.SpillOpFor(f.RegClass(u))
				}
				out = append(out, ir.Instr{Op: op, Dst: t, Imm: loc.off})
			}
			for ai, u := range in.Args {
				if t, ok := tempFor[u]; ok {
					in.Args[ai] = t
				}
			}
			// Spill for a spilled definition.
			var post *ir.Instr
			if in.Dst != ir.NoReg {
				if loc, ok := locs[in.Dst]; ok {
					t := f.NewReg(f.RegClass(in.Dst), f.Regs[in.Dst].Name+".s")
					var op ir.Op
					if loc.ccm {
						op, _ = ir.CCMOpFor(f.RegClass(in.Dst))
					} else {
						op, _ = ir.SpillOpFor(f.RegClass(in.Dst))
					}
					in.Dst = t
					post = &ir.Instr{Op: op, Dst: ir.NoReg, Args: []ir.Reg{t}, Imm: loc.off}
				}
			}
			out = append(out, in)
			if post != nil {
				out = append(out, *post)
			}
		}
		b.Instrs = out
	}

	// A spilled parameter has an implicit definition at entry: store it
	// into its slot before anything else runs.
	entry := f.Blocks[0]
	var paramSpills []ir.Instr
	for _, p := range f.Params {
		loc, ok := locs[p]
		if !ok {
			continue
		}
		var op ir.Op
		if loc.ccm {
			op, _ = ir.CCMOpFor(f.RegClass(p))
		} else {
			op, _ = ir.SpillOpFor(f.RegClass(p))
		}
		paramSpills = append(paramSpills, ir.Instr{Op: op, Dst: ir.NoReg, Args: []ir.Reg{p}, Imm: loc.off})
	}
	if len(paramSpills) > 0 {
		entry.Instrs = append(paramSpills, entry.Instrs...)
	}
	return nFrame, nCCM, nil
}

// rewritePhysical maps every live range to its physical register: integer
// color c becomes register c, float color c becomes IntRegs+c, matching
// the post-allocation register-table convention checked by ir.VerifyFunc.
func (a *allocation) rewritePhysical() {
	f := a.f
	phys := func(r ir.Reg) ir.Reg {
		c := a.color[r]
		if f.Regs[r].Class == ir.ClassFloat {
			return ir.Reg(a.opts.IntRegs + int(c))
		}
		return ir.Reg(c)
	}
	for pi, p := range f.Params {
		f.Params[pi] = phys(p)
	}
	for _, b := range f.Blocks {
		for ii := range b.Instrs {
			in := &b.Instrs[ii]
			for ai, arg := range in.Args {
				in.Args[ai] = phys(arg)
			}
			if in.Dst != ir.NoReg {
				in.Dst = phys(in.Dst)
			}
		}
	}
	regs := make([]ir.RegInfo, a.opts.IntRegs+a.opts.FloatRegs)
	for i := 0; i < a.opts.IntRegs; i++ {
		regs[i] = ir.RegInfo{Class: ir.ClassInt, Name: fmt.Sprintf("r%d", i)}
	}
	for i := 0; i < a.opts.FloatRegs; i++ {
		regs[a.opts.IntRegs+i] = ir.RegInfo{Class: ir.ClassFloat, Name: fmt.Sprintf("f%d", i)}
	}
	f.Regs = regs
	f.Allocated = true
	f.NumInt = a.opts.IntRegs
	f.NumFloat = a.opts.FloatRegs
}
