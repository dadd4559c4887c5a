package regalloc

import (
	"math"
	"math/bits"
	"sort"

	"ccmem/internal/ir"
)

// coalesce performs one conservative (Briggs) coalescing pass over the
// recorded copy instructions, merging nodes in the alias union-find. It
// returns the number of copies merged; the caller rewrites the code and
// rebuilds the graph before another pass, so within one pass any node
// already involved in a merge is skipped (the graph no longer reflects it).
func (a *allocation) coalesce() int {
	merged := 0
	touched := a.sc.arena.New(a.n)
	for _, cs := range a.copies {
		in := &a.f.Blocks[cs.block].Instrs[cs.index]
		if in.Op != ir.OpCopy && in.Op != ir.OpFCopy {
			continue
		}
		d, s := int(in.Dst), int(in.Args[0])
		if d == s || touched.Has(d) || touched.Has(s) {
			continue
		}
		if a.matrix.Has(d, s) {
			continue
		}
		if !a.briggsSafe(d, s) {
			continue
		}
		a.alias.Union(d, s)
		touched.Set(d)
		touched.Set(s)
		merged++
	}
	return merged
}

// briggsSafe applies the Briggs conservative test: the combined node has
// fewer than k neighbors of significant degree.
func (a *allocation) briggsSafe(d, s int) bool {
	k := a.kFor(d)
	rd, rs := a.matrix.Row(d), a.matrix.Row(s)
	significant := 0
	for i := range a.words {
		both := rd[i] & rs[i]
		for word := rd[i] | rs[i]; word != 0; word &= word - 1 {
			b := bits.TrailingZeros64(word)
			w := i*64 + b
			if w >= a.n {
				break // CCM-slot columns
			}
			deg := a.degree[w]
			// A neighbor adjacent to both d and s loses one edge in the merge.
			if both&(1<<uint(b)) != 0 {
				deg--
			}
			if deg >= k {
				significant++
			}
		}
	}
	return significant < k
}

// applyCoalesce rewrites the function through the alias map, removing
// copies that became identities, and compacts the register table.
func (a *allocation) applyCoalesce() {
	f := a.f
	newID := make([]ir.Reg, len(f.Regs))
	for i := range newID {
		newID[i] = ir.NoReg
	}
	var regs []ir.RegInfo
	rename := func(r ir.Reg) ir.Reg {
		rep := a.alias.Find(int(r))
		if newID[rep] == ir.NoReg {
			regs = append(regs, ir.RegInfo{Class: f.Regs[rep].Class, Name: f.Regs[rep].Name})
			newID[rep] = ir.Reg(len(regs) - 1)
		}
		return newID[rep]
	}
	for pi, p := range f.Params {
		f.Params[pi] = rename(p)
	}
	for _, b := range f.Blocks {
		kept := b.Instrs[:0]
		for ii := range b.Instrs {
			in := b.Instrs[ii]
			for ai, arg := range in.Args {
				in.Args[ai] = rename(arg)
			}
			if in.Dst != ir.NoReg {
				in.Dst = rename(in.Dst)
			}
			if (in.Op == ir.OpCopy || in.Op == ir.OpFCopy) && in.Dst == in.Args[0] {
				continue // identity copy
			}
			kept = append(kept, in)
		}
		b.Instrs = kept
	}
	f.Regs = regs
}

// computeSpillCosts estimates the dynamic cost of spilling each live range
// as Σ 10^loop-depth over its definitions and uses, and detects ranges
// that spilling cannot help (the tiny def-use pairs produced by earlier
// spill insertion), which become infinitely expensive — the standard
// Chaitin-Briggs guarantee of termination.
func (a *allocation) computeSpillCosts() {
	f := a.f
	sc := a.sc
	sc.cost = sized(sc.cost, a.n)
	a.cost = sc.cost
	sc.noSpill = sized(sc.noSpill, a.n)
	a.noSpill = sc.noSpill

	// Occurrence records, flattened into one shared buffer: pass one
	// counts per-range occurrences, a prefix sum carves each range's
	// region, pass two fills the regions in the same program order the
	// old per-range append slices saw. occCnt doubles as the fill cursor.
	occCnt := sized(sc.occCnt, a.n)
	sc.occCnt = occCnt
	forEachOcc := func(visit func(r ir.Reg, bi, ii int, def bool)) {
		for bi, b := range f.Blocks {
			for ii := range b.Instrs {
				in := &b.Instrs[ii]
				for _, u := range in.Args {
					visit(u, bi, ii, false)
				}
				if in.Dst != ir.NoReg {
					visit(in.Dst, bi, ii, true)
				}
			}
		}
	}
	forEachOcc(func(r ir.Reg, bi, ii int, def bool) { occCnt[r]++ })
	if cap(sc.occOff) < a.n+1 {
		sc.occOff = make([]int32, a.n+1)
	}
	occOff := sc.occOff[:a.n+1]
	occOff[0] = 0
	for r := 0; r < a.n; r++ {
		occOff[r+1] = occOff[r] + occCnt[r]
		occCnt[r] = 0
	}
	total := int(occOff[a.n])
	if cap(sc.occs) < total {
		sc.occs = make([]occ, total)
	}
	occs := sc.occs[:total]
	forEachOcc(func(r ir.Reg, bi, ii int, def bool) {
		occs[occOff[r]+occCnt[r]] = occ{block: bi, index: ii, isDef: def}
		occCnt[r]++
	})
	for bi, b := range f.Blocks {
		depth := a.g.LoopDepth(bi)
		if depth > 9 {
			depth = 9
		}
		w := math.Pow(10, float64(depth))
		for ii := range b.Instrs {
			in := &b.Instrs[ii]
			for _, u := range in.Args {
				a.cost[u] += w
			}
			if in.Dst != ir.NoReg {
				a.cost[in.Dst] += w
			}
		}
	}

	// A range whose occurrences form def/use pairs within single blocks,
	// separated only by other spill code or constant materializations, is
	// a spill temporary: re-spilling it reproduces the same shape and
	// makes no progress, so its cost is infinite. (Restores and constants
	// for an instruction with several spilled operands stack up, so the
	// gap may hold them.)
	spillCode := func(op ir.Op) bool {
		return op.IsRestore() || op.IsSpill() || op.IsCCMRestore() || op.IsCCMSpill() ||
			op == ir.OpLoadI || op == ir.OpLoadF || op == ir.OpAddr
	}
	for r := 0; r < a.n; r++ {
		o := occs[occOff[r]:occOff[r+1]]
		if len(o) == 0 || len(o)%2 != 0 {
			continue
		}
		temp := true
		for i := 0; i < len(o) && temp; i += 2 {
			d, u := o[i], o[i+1]
			if !d.isDef || u.isDef || d.block != u.block || u.index <= d.index {
				temp = false
				break
			}
			for k := d.index + 1; k < u.index; k++ {
				if !spillCode(f.Blocks[d.block].Instrs[k].Op) {
					temp = false
					break
				}
			}
		}
		if temp {
			a.noSpill[r] = true
		}
	}
}

// simplify removes nodes from the graph onto the coloring stack, pushing a
// cheapest spill candidate optimistically when every remaining node has
// significant degree (Briggs optimistic coloring).
func (a *allocation) simplify() {
	sc := a.sc
	a.stack = sc.stack[:0]
	deg := sized(sc.deg, a.n)
	sc.deg = deg
	copy(deg, a.degree)
	removed := sized(sc.removed, a.n)
	sc.removed = removed
	remaining := a.n

	// Deterministic iteration: ascending node id.
	removeNode := func(v int) {
		removed[v] = true
		remaining--
		a.stack = append(a.stack, int32(v))
		a.forNeighbours(v, func(w int) {
			if !removed[w] {
				deg[w]--
			}
		})
	}

	for remaining > 0 {
		progressed := false
		for v := 0; v < a.n; v++ {
			if removed[v] {
				continue
			}
			if deg[v] < a.kFor(v) {
				removeNode(v)
				progressed = true
			}
		}
		if progressed {
			continue
		}
		// All remaining nodes are high degree: push the cheapest spill
		// candidate by Chaitin's cost/degree optimistically.
		best, bestScore := -1, math.Inf(1)
		for v := 0; v < a.n; v++ {
			if removed[v] || a.noSpill[v] {
				continue
			}
			if score := a.cost[v] / float64(deg[v]+1); score < bestScore {
				best, bestScore = v, score
			}
		}
		if best == -1 {
			// Only "unspillable" nodes remain; push the lowest-degree one
			// and hope optimism colors it (select reports failure if not).
			for v := 0; v < a.n; v++ {
				if !removed[v] {
					if best == -1 || deg[v] < deg[best] {
						best = v
					}
				}
			}
		}
		removeNode(best)
	}
	sc.stack = a.stack
}

// sel pops the simplify stack assigning colors; it returns the live
// ranges that failed to receive one and must be spilled.
func (a *allocation) sel() []int {
	sc := a.sc
	sc.color = sized(sc.color, a.n)
	a.color = sc.color
	for i := range a.color {
		a.color[i] = -1
	}
	spilled := sc.spilled[:0]
	used := sized(sc.used, maxInt(a.opts.IntRegs, a.opts.FloatRegs))
	sc.used = used
	for i := len(a.stack) - 1; i >= 0; i-- {
		v := int(a.stack[i])
		k := a.kFor(v)
		for c := 0; c < k; c++ {
			used[c] = false
		}
		a.forNeighbours(v, func(w int) {
			if c := a.color[w]; c >= 0 && int(c) < k {
				used[c] = true
			}
		})
		chosen := int32(-1)
		for c := 0; c < k; c++ {
			if !used[c] {
				chosen = int32(c)
				break
			}
		}
		if chosen == -1 {
			spilled = append(spilled, v)
			continue
		}
		a.color[v] = chosen
	}
	sort.Ints(spilled)
	sc.spilled = spilled
	return spilled
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
