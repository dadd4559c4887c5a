package core

import (
	"fmt"

	"ccmem/internal/callgraph"
	"ccmem/internal/ir"
)

// PostPassOptions configure the stand-alone CCM allocator of paper §3.1.
type PostPassOptions struct {
	// CCMBytes is the capacity of the compiler-controlled memory.
	CCMBytes int64

	// Interprocedural enables the call-graph-directed variant: functions
	// are processed bottom-up, values live across a call may use CCM above
	// the callee's high-water mark, and call-graph cycles conservatively
	// count as using the full CCM. When false, the allocator "only uses
	// CCM for values that are not live across calls".
	Interprocedural bool

	// Skip excludes the named functions from promotion: their spill code
	// is left on the heavyweight spill-to-RAM path untouched. The
	// pipeline's degradation ladder uses this to quarantine functions
	// that faulted during allocation. Skipped functions still take part
	// in the call-graph walk so their callers see a correct (zero-CCM)
	// high-water mark.
	Skip map[string]bool

	// OnFunc, when non-nil, is called with each function's name just
	// before its spills are analyzed and rewritten. The pipeline uses it
	// to attribute a mid-walk fault to the function being processed.
	OnFunc func(name string)
}

// FuncPromotion reports per-function promotion results.
type FuncPromotion struct {
	Webs        int   // spill-location live ranges found
	Promoted    int   // webs redirected into the CCM
	Heavyweight int   // webs left in main memory
	CCMBytes    int64 // high-water of this function's own CCM use
	EffectiveHW int64 // including everything reachable from it
	InCycle     bool
}

// PostPassResult aggregates a whole-program post-pass run.
type PostPassResult struct {
	PerFunc map[string]*FuncPromotion
}

// TotalPromoted sums promoted webs over all functions.
func (r *PostPassResult) TotalPromoted() int {
	n := 0
	for _, fp := range r.PerFunc {
		n += fp.Promoted
	}
	return n
}

// PostPass runs the stand-alone CCM allocator over every allocated
// function of p, redirecting a safe, profitable subset of heavyweight
// spills into the CCM (paper Figure 1):
//
//	Calculate the call graph; conservatively mark subroutines in
//	call-graph cycles as using all of CCM.
//	For each subroutine in a postorder walk over the call graph:
//	  rewrite spill instructions with symbolic names; liveness over spill
//	  locations; SSA on the spill locations; live-range names;
//	  interference graph; costs; allocate live ranges to CCM by coloring;
//	  rewrite spill instructions to spill to CCM; record CCM used.
//
// The allocator generates no new spills: a value that does not fit keeps
// its original heavyweight spill code ("conservative, but safe").
func PostPass(p *ir.Program, opts PostPassOptions) (*PostPassResult, error) {
	if opts.CCMBytes <= 0 || opts.CCMBytes%ir.WordBytes != 0 {
		return nil, fmt.Errorf("core: PostPass needs a positive word-aligned CCMBytes, got %d", opts.CCMBytes)
	}
	slots := int(opts.CCMBytes / ir.WordBytes)

	cg := callgraph.New(p)
	order := cg.PostOrder()
	highWater := map[string]int64{} // effective high water, bytes

	res := &PostPassResult{PerFunc: map[string]*FuncPromotion{}}
	for _, name := range order {
		f := p.Func(name)
		if !f.Allocated {
			return nil, fmt.Errorf("core: PostPass requires allocated code; %s is not", name)
		}
		if hasCCMOps(f) {
			return nil, fmt.Errorf("core: %s already contains CCM operations", name)
		}
		inCycle := cg.InCycle(name)
		if opts.Skip[name] {
			// Quarantined: no promotion, no CCM of its own; callers still
			// need its effective high water (its callees' CCM use).
			hw := int64(0)
			if inCycle {
				hw = opts.CCMBytes
			} else {
				for _, callee := range cg.Callees[name] {
					if h, ok := highWater[callee]; ok && h > hw {
						hw = h
					}
				}
			}
			highWater[name] = hw
			res.PerFunc[name] = &FuncPromotion{InCycle: inCycle, EffectiveHW: hw}
			continue
		}
		if opts.OnFunc != nil {
			opts.OnFunc(name)
		}

		a, err := analyzeSpills(f)
		if err != nil {
			return nil, err
		}
		fp := &FuncPromotion{Webs: len(a.webs), InCycle: inCycle}
		res.PerFunc[name] = fp

		// Per-web base slot: the "beginning" of its CCM search space.
		base := make([]int, len(a.webs))
		eligible := make([]bool, len(a.webs))
		for _, w := range a.webs {
			if w.unsafe {
				continue
			}
			if !w.liveAcrossCall {
				eligible[w.id] = true
				continue
			}
			if !opts.Interprocedural {
				continue // intra rule: never CCM a value live across a call
			}
			b := int64(0)
			for callee := range w.acrossCallees {
				hw, ok := highWater[callee]
				if !ok {
					hw = opts.CCMBytes // same-SCC callee: full CCM
				}
				if hw > b {
					b = hw
				}
			}
			if b >= opts.CCMBytes {
				continue // no room above the callees' high water
			}
			base[w.id] = int(b / ir.WordBytes)
			eligible[w.id] = true
		}

		promoted := a.colorIntoCCM(slots, base, eligible)
		maxEnd := int64(0)
		for wid, slot := range promoted {
			off := int64(slot) * ir.WordBytes
			if err := a.rewriteWeb(a.webs[wid], true, off); err != nil {
				return nil, err
			}
			if off+ir.WordBytes > maxEnd {
				maxEnd = off + ir.WordBytes
			}
			fp.Promoted++
		}
		fp.Heavyweight = fp.Webs - fp.Promoted
		fp.CCMBytes = maxEnd
		f.CCMBytes = maxEnd

		// Record the amount of CCM used by this subroutine, for callers.
		hw := maxEnd
		if inCycle {
			hw = opts.CCMBytes
		} else {
			for _, callee := range cg.Callees[name] {
				if h, ok := highWater[callee]; ok && h > hw {
					hw = h
				}
			}
		}
		highWater[name] = hw
		fp.EffectiveHW = hw
	}
	return res, nil
}

// colorIntoCCM colors eligible webs into CCM slots with per-web base
// constraints, Chaitin-style: simplify while some node has more available
// slots than neighbors; when stuck, drop the cheapest node from the graph
// entirely (it remains a heavyweight spill). Returns web id -> slot.
func (a *analysis) colorIntoCCM(slots int, base []int, eligible []bool) map[int]int {
	type state struct {
		deg     int
		removed bool
	}
	nodes := make([]int, 0, len(a.webs))
	st := make([]state, len(a.webs))
	for _, w := range a.webs {
		if eligible[w.id] && base[w.id] < slots {
			nodes = append(nodes, w.id)
		} else {
			st[w.id].removed = true
		}
	}
	for _, v := range nodes {
		for _, n := range a.adj[v] {
			if !st[n].removed {
				st[v].deg++
			}
		}
	}

	remaining := len(nodes)
	var stack []int
	drop := func(v int, push bool) {
		st[v].removed = true
		remaining--
		if push {
			stack = append(stack, v)
		}
		for _, n := range a.adj[v] {
			if !st[n].removed {
				st[n].deg--
			}
		}
	}
	for remaining > 0 {
		progressed := false
		for _, v := range nodes {
			if st[v].removed {
				continue
			}
			if slots-base[v] > st[v].deg {
				drop(v, true)
				progressed = true
			}
		}
		if progressed {
			continue
		}
		// Stuck: every node is constrained. Remove the cheapest from the
		// graph, leaving it as a heavyweight spill (paper §3.1).
		cheapest := -1
		for _, v := range nodes {
			if st[v].removed {
				continue
			}
			if cheapest == -1 || a.webs[v].cost < a.webs[cheapest].cost ||
				(a.webs[v].cost == a.webs[cheapest].cost && v < cheapest) {
				cheapest = v
			}
		}
		drop(cheapest, false)
	}

	// Select: pop in reverse, take the first free slot at or above the
	// web's beginning (paper: "starts at the beginning of the CCM and
	// tries successive locations until it finds one that will work").
	// A web's neighbours block at most len(adj) slots, so its first free
	// one lies at most that far above its base: the flags need not span
	// the whole CCM.
	span := 0
	for _, v := range stack {
		span = max(span, base[v]+len(a.adj[v])+1)
	}
	slotOf := make(map[int]int, len(stack))
	used := make([]bool, min(span, slots))
	for i := len(stack) - 1; i >= 0; i-- {
		v := stack[i]
		for _, n := range a.adj[v] {
			if s, ok := slotOf[int(n)]; ok {
				used[s] = true
			}
		}
		chosen := -1
		for s := base[v]; s < len(used); s++ {
			if !used[s] {
				chosen = s
				break
			}
		}
		for _, n := range a.adj[v] {
			if s, ok := slotOf[int(n)]; ok {
				used[s] = false
			}
		}
		if chosen < 0 {
			continue // cannot happen given the simplify condition; stay heavyweight
		}
		slotOf[v] = chosen
	}
	return slotOf
}

func hasCCMOps(f *ir.Func) bool {
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op.IsCCMOp() {
				return true
			}
		}
	}
	return false
}
