package regalloc

import (
	"fmt"
	"math/bits"

	"ccmem/internal/bitset"
	"ccmem/internal/cfg"
	"ccmem/internal/intgraph"
	"ccmem/internal/ir"
	"ccmem/internal/liveness"
	"ccmem/internal/uf"
)

// allocation holds the per-round state of the Chaitin-Briggs allocator.
// Nodes 0..n-1 are live ranges; nodes n..n+ccmSlots-1 are CCM locations
// (present only in integrated mode). CCM nodes join the graph but are
// never simplified or colored: their edges are "ignored during allocation
// and used during spill code insertion" (paper §3.2).
//
// All working storage lives in sc and is recycled across rounds and
// across Allocate calls (see scratch); the fields here are views into it.
type allocation struct {
	f    *ir.Func
	opts Options
	sc   *scratch

	g    *cfg.Graph
	live *liveness.Result

	n        int // live-range count
	words    int // ⌈n/64⌉: the row words holding live-range columns
	ccmSlots int

	// matrix holds the interference graph as one bit row per node. A live
	// range's row has its same-class live-range neighbours in columns
	// 0..n-1, then the CCM slots it conflicts with; a slot's row has the
	// live ranges it conflicts with. Neighbour walks scan a row's first
	// words in ascending order and skip columns n and up. No consumer is
	// order-sensitive (they count, mark, or decrement).
	matrix         *intgraph.Matrix
	degree         []int // same-class live-range neighbors only
	liveAcrossCall bitset.Set
	float          bitset.Set // the float-class live ranges

	// anyMatrix records value-value interference regardless of register
	// class, in integrated mode only (nil otherwise). Register coloring
	// ignores cross-class pairs (they never compete for colors), but CCM
	// slots are class-agnostic: two values spilled in the same round may
	// share a slot only if they do not interfere as values (paper
	// footnote 5), including an integer against a float.
	anyMatrix *intgraph.Matrix

	cost    []float64
	noSpill []bool

	stack []int32
	color []int32 // physical color per live range; -1 = uncolored

	alias  *uf.Set
	copies []copySiteRef
}

// copySiteRef locates a copy instruction for coalescing.
type copySiteRef struct {
	block int
	index int
}

func newAllocation(f *ir.Func, opts Options, sc *scratch) (*allocation, error) {
	return &allocation{
		f:        f,
		opts:     opts,
		sc:       sc,
		n:        len(f.Regs),
		ccmSlots: ccmSlots(f, opts.CCMBytes),
	}, nil
}

// ccmSlots is how many CCM slots a round's graph carries: the CCM's
// capacity, capped at the slots f's code already names plus one per live
// range. insertSpills gives a spilled range the lowest slot free of
// conflicts, and a slot past those named has none, so no range reaches
// past the cap; without it a large CCM would size the graph.
func ccmSlots(f *ir.Func, ccmBytes int64) int {
	slots := ccmBytes / ir.WordBytes
	if slots == 0 {
		return 0
	}
	named := int64(0)
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if in := &b.Instrs[i]; in.Op.IsCCMOp() {
				named = max(named, in.Imm/ir.WordBytes+1)
			}
		}
	}
	return int(min(slots, named+int64(len(f.Regs))))
}

// kFor returns the color budget for a live range's class.
func (a *allocation) kFor(node int) int {
	if a.f.Regs[node].Class == ir.ClassFloat {
		return a.opts.FloatRegs
	}
	return a.opts.IntRegs
}

// forNeighbours calls visit with each live-range neighbour of u in
// ascending order, skipping the row's CCM-slot columns.
func (a *allocation) forNeighbours(u int, visit func(w int)) {
	for i, word := range a.matrix.Row(u)[:a.words] {
		for ; word != 0; word &= word - 1 {
			if w := i*64 + bits.TrailingZeros64(word); w < a.n {
				visit(w)
			}
		}
	}
}

// interfere records a definition of live range d at which the ranges in
// live are live, a word at a time. In the register graph d interferes
// with every member of its own class except itself and src, a copy's
// source (or -1): Chaitin's copy exception leaves the source free to share
// d's register. It may still not share d's CCM slot, since either range
// can be redefined while the other lives, so in the any-class relation d
// interferes with every member except itself.
func (a *allocation) interfere(d int, live bitset.Set, src int) {
	fw := a.float.Words()
	var class uint64 // XOR-ed into the float words, it selects d's class
	if !a.float.Has(d) {
		class = ^uint64(0)
	}
	for i, w := range live.Words() {
		if i == d/64 {
			w &^= 1 << uint(d%64)
		}
		if a.anyMatrix != nil {
			a.anyMatrix.AddWord(d, i, w)
		}
		if src >= 0 && i == src/64 {
			w &^= 1 << uint(src%64)
		}
		a.matrix.AddWord(d, i, w&(fw[i]^class))
	}
}

// buildGraph recomputes CFG, liveness and the interference graph for the
// current code, including CCM location nodes when integrated mode is on.
func (a *allocation) buildGraph() error {
	f := a.f
	sc := a.sc
	a.n = len(f.Regs)
	a.words = (a.n + 63) / 64

	g, err := cfg.New(f)
	if err != nil {
		return err
	}
	a.g = g

	// The arena backs every liveness set of this round; resetting it here
	// retires the previous round's sets (nothing reads them after the
	// round's graph is rebuilt).
	sc.arena.Reset()

	// Liveness over live ranges; CCM slots are tracked manually below.
	a.live = liveness.RegistersIn(&sc.arena, f, g)

	sc.matrix.Reset(a.n + a.ccmSlots)
	a.matrix = &sc.matrix
	if a.ccmSlots > 0 {
		sc.anyMatrix.Reset(a.n)
		a.anyMatrix = &sc.anyMatrix
	}
	a.liveAcrossCall = sc.arena.New(a.n)
	a.float = sc.arena.New(a.n)
	for r := range f.Regs {
		if f.Regs[r].Class == ir.ClassFloat {
			a.float.Set(r)
		}
	}
	a.copies = sc.copies[:0]
	sc.alias.Reset(a.n)
	a.alias = &sc.alias

	// Values carried into the function (parameters, and any
	// read-before-write ranges) are all written by the caller at entry, so
	// they must occupy distinct registers: each interferes with the rest.
	entry := sc.arena.New(a.n)
	entry.CopyFrom(a.live.In[0])
	for _, p := range f.Params {
		entry.Set(int(p))
	}
	entry.ForEach(func(r int) { a.interfere(r, entry, -1) })

	// CCM slot liveness: solve the backward problem over slots first so
	// block-exit slot liveness is available. Slots are used by ccmrestore
	// and killed by ccmspill.
	var slotLive *liveness.Result
	if a.ccmSlots > 0 {
		use := make([]bitset.Set, g.NumBlocks())
		def := make([]bitset.Set, g.NumBlocks())
		for i := 0; i < g.NumBlocks(); i++ {
			use[i] = sc.arena.New(a.ccmSlots)
			def[i] = sc.arena.New(a.ccmSlots)
		}
		for bi, b := range f.Blocks {
			for ii := range b.Instrs {
				in := &b.Instrs[ii]
				if in.Op.IsCCMRestore() {
					s := int(in.Imm / ir.WordBytes)
					if !def[bi].Has(s) {
						use[bi].Set(s)
					}
				} else if in.Op.IsCCMSpill() {
					def[bi].Set(int(in.Imm / ir.WordBytes))
				}
			}
		}
		slotLive = liveness.BackwardIn(&sc.arena, g, use, def, nil)
	}

	// Backward scan per block building edges.
	liveNow := sc.arena.New(a.n)
	var slotNow bitset.Set
	if a.ccmSlots > 0 {
		slotNow = sc.arena.New(a.ccmSlots)
	}
	for bi := len(f.Blocks) - 1; bi >= 0; bi-- {
		b := f.Blocks[bi]
		if !g.Reachable(bi) {
			continue
		}
		liveNow.CopyFrom(a.live.Out[bi])
		if a.ccmSlots > 0 {
			slotNow.CopyFrom(slotLive.Out[bi])
		}
		for ii := len(b.Instrs) - 1; ii >= 0; ii-- {
			in := &b.Instrs[ii]
			if in.Op == ir.OpPhi {
				return fmt.Errorf("regalloc: %s: phi reached interference construction", f.Name)
			}
			isCopy := in.Op == ir.OpCopy || in.Op == ir.OpFCopy

			if in.Op == ir.OpCall {
				a.liveAcrossCall.UnionWith(liveNow)
			}

			// Definition point.
			switch {
			case in.Op.IsCCMSpill():
				s := int(in.Imm / ir.WordBytes)
				for i, w := range liveNow.Words() {
					a.matrix.AddWord(a.n+s, i, w)
				}
				slotNow.Clear(s)
			case in.Dst != ir.NoReg:
				d, src := int(in.Dst), -1
				if isCopy {
					src = int(in.Args[0])
				}
				a.interfere(d, liveNow, src)
				if a.ccmSlots > 0 {
					slotNow.ForEach(func(s int) { a.matrix.Set(d, a.n+s) })
				}
				liveNow.Clear(d)
			}

			// Use points.
			if in.Op.IsCCMRestore() {
				slotNow.Set(int(in.Imm / ir.WordBytes))
			}
			for _, u := range in.Args {
				liveNow.Set(int(u))
			}

			if isCopy && in.Dst != in.Args[0] {
				a.copies = append(a.copies, copySiteRef{block: bi, index: ii})
			}
		}
	}
	sc.copies = a.copies // keep any regrown backing array for the next round

	// A range's degree is the popcount of its row's live-range columns,
	// with the CCM-slot columns from n on masked off.
	sc.degree = sized(sc.degree, a.n)
	a.degree = sc.degree
	tail := ^uint64(0) >> uint(a.words*64-a.n)
	for u := range a.degree {
		row := a.matrix.Row(u)[:a.words]
		deg := bits.OnesCount64(row[a.words-1] & tail)
		for _, w := range row[:a.words-1] {
			deg += bits.OnesCount64(w)
		}
		a.degree[u] = deg
	}
	return nil
}
