package regalloc

import (
	"testing"

	"ccmem/internal/bitset"
	"ccmem/internal/cfg"
	"ccmem/internal/ir"
	"ccmem/internal/liveness"
	"ccmem/internal/ssa"
	"ccmem/internal/workload"
)

// refGraph is the interference graph built one (definition, live range)
// pair at a time through addEdge, as the allocator built it before its
// rows were filled a word at a time. It is the reference the word-built
// graph must equal.
type refGraph struct {
	f    *ir.Func
	n    int
	reg  [][]bool // live ranges then CCM slots, as allocation.matrix
	any  [][]bool // live ranges only, as allocation.anyMatrix
	deg  []int
	call []bool
}

func (r *refGraph) addEdge(u, v int) {
	if u == v {
		return
	}
	ur, vr := u < r.n, v < r.n
	if ur && vr {
		r.any[u][v], r.any[v][u] = true, true
	}
	if r.reg[u][v] {
		return
	}
	switch {
	case ur && vr:
		if r.f.Regs[u].Class != r.f.Regs[v].Class {
			return
		}
	case !ur && !vr:
		return
	}
	r.reg[u][v], r.reg[v][u] = true, true
	if ur && vr {
		r.deg[u]++
		r.deg[v]++
	}
}

func boolMatrix(n int) [][]bool {
	m := make([][]bool, n)
	for i := range m {
		m[i] = make([]bool, n)
	}
	return m
}

// buildRefGraph builds f's interference graph with ccmSlots CCM-slot
// nodes the per-pair way.
func buildRefGraph(t *testing.T, f *ir.Func, ccmSlots int) *refGraph {
	t.Helper()
	n := len(f.Regs)
	r := &refGraph{f: f, n: n, reg: boolMatrix(n + ccmSlots), any: boolMatrix(n),
		deg: make([]int, n), call: make([]bool, n)}
	g, err := cfg.New(f)
	if err != nil {
		t.Fatal(err)
	}
	live := liveness.RegistersIn(nil, f, g)

	entry := live.In[0].Members()
	for _, p := range f.Params {
		if !live.In[0].Has(int(p)) {
			entry = append(entry, int(p))
		}
	}
	for i := range entry {
		for j := i + 1; j < len(entry); j++ {
			r.addEdge(entry[i], entry[j])
		}
	}

	var slotLive *liveness.Result
	if ccmSlots > 0 {
		use := make([]bitset.Set, g.NumBlocks())
		def := make([]bitset.Set, g.NumBlocks())
		for i := range use {
			use[i], def[i] = bitset.New(ccmSlots), bitset.New(ccmSlots)
		}
		for bi, b := range f.Blocks {
			for _, in := range b.Instrs {
				s := int(in.Imm / ir.WordBytes)
				if in.Op.IsCCMRestore() && !def[bi].Has(s) {
					use[bi].Set(s)
				} else if in.Op.IsCCMSpill() {
					def[bi].Set(s)
				}
			}
		}
		slotLive = liveness.Backward(g, use, def, nil)
	}

	for bi := len(f.Blocks) - 1; bi >= 0; bi-- {
		if !g.Reachable(bi) {
			continue
		}
		b := f.Blocks[bi]
		liveNow := live.Out[bi].Copy()
		var slotNow bitset.Set
		if ccmSlots > 0 {
			slotNow = slotLive.Out[bi].Copy()
		}
		for ii := len(b.Instrs) - 1; ii >= 0; ii-- {
			in := &b.Instrs[ii]
			isCopy := in.Op == ir.OpCopy || in.Op == ir.OpFCopy
			if in.Op == ir.OpCall {
				liveNow.ForEach(func(v int) { r.call[v] = true })
			}
			switch {
			case in.Op.IsCCMSpill():
				s := int(in.Imm / ir.WordBytes)
				liveNow.ForEach(func(v int) { r.addEdge(n+s, v) })
				slotNow.Clear(s)
			case in.Dst != ir.NoReg:
				d := int(in.Dst)
				liveNow.ForEach(func(v int) {
					if isCopy && v == int(in.Args[0]) {
						if d != v {
							r.any[d][v], r.any[v][d] = true, true
						}
						return
					}
					r.addEdge(d, v)
				})
				if ccmSlots > 0 {
					slotNow.ForEach(func(s int) { r.addEdge(d, n+s) })
				}
				liveNow.Clear(d)
			}
			if in.Op.IsCCMRestore() {
				slotNow.Set(int(in.Imm / ir.WordBytes))
			}
			for _, u := range in.Args {
				liveNow.Set(int(u))
			}
		}
	}
	return r
}

// coverage counts what the checked graphs contained, so the property
// test can insist that every construction rule was exercised.
type coverage struct {
	graphs, copies, calls, params, slotEdges, anyOnly int
}

// checkGraph compares a's word-built graph with the per-pair reference.
func checkGraph(t *testing.T, a *allocation, cov *coverage) {
	t.Helper()
	ref := buildRefGraph(t, a.f, a.ccmSlots)
	n, name := a.n, a.f.Name
	cov.graphs++
	cov.copies += len(a.copies)
	cov.params += len(a.f.Params)
	for _, b := range a.f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpCall {
				cov.calls++
			}
		}
	}
	// Rows are compared bit by bit, both directions of every pair.
	for u, want := range ref.reg {
		row := a.matrix.Row(u)
		for v, w := range want {
			if got := row[v/64]>>(v%64)&1 != 0; got != w {
				t.Fatalf("%s: edge (%d,%d) = %v, reference %v (n=%d, slots=%d)", name, u, v, got, w, n, a.ccmSlots)
			}
			if w && u < n && v >= n {
				cov.slotEdges++
			}
		}
	}
	if a.ccmSlots == 0 {
		if a.anyMatrix != nil {
			t.Fatalf("%s: any-class relation kept without CCM", name)
		}
	} else {
		for u, want := range ref.any {
			row := a.anyMatrix.Row(u)
			for v, w := range want {
				if got := row[v/64]>>(v%64)&1 != 0; got != w {
					t.Fatalf("%s: any-class pair (%d,%d) = %v, reference %v", name, u, v, got, w)
				}
				if w && !ref.reg[u][v] {
					cov.anyOnly++
				}
			}
		}
	}
	for u := range n {
		if a.degree[u] != ref.deg[u] {
			t.Fatalf("%s: degree[%d] = %d, reference %d", name, u, a.degree[u], ref.deg[u])
		}
		if a.liveAcrossCall.Has(u) != ref.call[u] {
			t.Fatalf("%s: liveAcrossCall[%d] = %v, reference %v", name, u, a.liveAcrossCall.Has(u), ref.call[u])
		}
	}
}

// eachGraph runs Allocate's round loop on f with scratch sc, calling check
// after every interference-graph build, including the rebuilds after
// coalescing and the rounds that follow spill insertion.
func eachGraph(t *testing.T, sc *scratch, f *ir.Func, opts Options, check func(*allocation)) {
	t.Helper()
	opts = opts.withDefaults()
	for range opts.MaxRounds {
		info, err := ssa.Build(f)
		if err != nil {
			t.Fatal(err)
		}
		info.CollapseToLiveRanges()
		a, _ := newAllocation(f, opts, sc)
		for {
			if err := a.buildGraph(); err != nil {
				t.Fatal(err)
			}
			check(a)
			if a.coalesce() == 0 {
				break
			}
			a.applyCoalesce()
		}
		a.computeSpillCosts()
		a.simplify()
		spilled := a.sel()
		if len(spilled) == 0 {
			return
		}
		if _, _, err := a.insertSpills(spilled); err != nil {
			return // registers too scarce: every built graph was checked
		}
	}
}

// TestGraphMatchesPairwiseReference: the word-built interference graph
// equals the per-pair reference in edge set, degrees, slot edges,
// any-class pairs and the live-across-call set, over random
// programs and every suite routine, with and without CCM slots.
func TestGraphMatchesPairwiseReference(t *testing.T) {
	// Random programs also run on a tight register file; the suite's
	// kernels spill at the default one already.
	type input struct {
		p    *ir.Program
		regs []int
	}
	var ins []input
	for seed := int64(1); seed <= 20; seed++ {
		ins = append(ins, input{workload.RandomProgram(seed), []int{0, 8}})
	}
	for _, r := range workload.All() {
		p, err := r.Build()
		if err != nil {
			t.Fatal(err)
		}
		ins = append(ins, input{p, []int{0}})
	}
	var cov coverage
	sc := new(scratch) // shared, as the pool shares it, so reuse is checked too
	for _, in := range ins {
		for _, f := range in.p.Funcs {
			for _, ccm := range []int64{0, 512} {
				for _, regs := range in.regs {
					opts := Options{IntRegs: regs, FloatRegs: regs, CCMBytes: ccm}
					eachGraph(t, sc, f.Clone(), opts, func(a *allocation) { checkGraph(t, a, &cov) })
				}
			}
		}
	}
	t.Logf("%+v", cov)
	if cov.copies == 0 || cov.calls == 0 || cov.params == 0 || cov.slotEdges == 0 || cov.anyOnly == 0 {
		t.Fatalf("a construction rule went unexercised: %+v", cov)
	}
}
