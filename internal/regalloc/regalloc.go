// Package regalloc implements a Chaitin-Briggs graph-coloring register
// allocator (Briggs 1992) for the two-class abstract machine of the paper:
// live ranges are built by collapsing pruned SSA, copies are coalesced
// conservatively, coloring is optimistic, and spilling is spill-everywhere
// with 10^loop-depth cost weighting.
//
// With Options.CCM set, the allocator runs the paper's §3.2 integrated
// scheme: CCM location names join the interference graph after live ranges
// are built, their edges are ignored during coloring and consulted during
// spill-code insertion, and a value marked for spilling is placed in the
// lowest conflict-free CCM slot (falling back to the activation record
// when none fits, or when the value is live across a call — the
// conservative interprocedural rule).
package regalloc

import (
	"fmt"

	"ccmem/internal/ir"
	"ccmem/internal/obs"
	"ccmem/internal/ssa"
)

// Options configure one allocation.
type Options struct {
	IntRegs   int // colors for the integer class (default 32)
	FloatRegs int // colors for the float class (default 32)

	// CCMBytes, when positive, enables integrated CCM spilling with the
	// given capacity (paper §3.2).
	CCMBytes int64

	// MaxRounds bounds the build-spill iteration (default 64).
	MaxRounds int

	// Obs, when non-nil, receives allocation counters (regalloc.spills,
	// regalloc.coalesces, regalloc.rounds, regalloc.frame_ranges,
	// regalloc.ccm_ranges) for every successful Allocate. The counters
	// are a pure function of (f, Options), so their totals are identical
	// however calls are scheduled.
	Obs *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.IntRegs == 0 {
		o.IntRegs = 32
	}
	if o.FloatRegs == 0 {
		o.FloatRegs = 32
	}
	if o.MaxRounds == 0 {
		o.MaxRounds = 64
	}
	return o
}

// Result reports what allocation did.
type Result struct {
	Rounds          int   // build-color-spill iterations
	SpilledRanges   int   // live ranges sent to memory (frame or CCM)
	FrameRanges     int   // of those, ranges assigned activation-record slots
	CCMRanges       int   // of those, ranges assigned CCM slots
	FrameBytes      int64 // naive frame usage (one slot per spilled range)
	CCMBytesUsed    int64 // high-water CCM usage of this function's own code
	CopiesCoalesced int
}

// Allocate rewrites f in place to use physical registers, inserting spill
// code as needed. On success f.Allocated is true, registers are the
// physical names (integers first, then floats), and spill code addresses
// f.FrameBytes bytes of activation record plus, in integrated mode, up to
// Result.CCMBytesUsed bytes of CCM.
func Allocate(f *ir.Func, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if f.Allocated {
		return nil, fmt.Errorf("regalloc: %s is already allocated", f.Name)
	}
	res := &Result{}

	// One scratch per concurrent Allocate: every round's graph, side
	// arrays and liveness sets are carved from it and recycled.
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)

	for round := 0; ; round++ {
		if round >= opts.MaxRounds {
			return nil, fmt.Errorf("regalloc: %s did not converge after %d rounds", f.Name, opts.MaxRounds)
		}
		res.Rounds = round + 1

		// Build SSA Form; build live-range names (paper Fig. 2).
		info, err := ssa.Build(f)
		if err != nil {
			return nil, err
		}
		info.CollapseToLiveRanges()

		a, err := newAllocation(f, opts, sc)
		if err != nil {
			return nil, err
		}

		// Repeat until no more coalescing possible: build the interference
		// graph (including CCM positions) and coalesce copies.
		for {
			if err := a.buildGraph(); err != nil {
				return nil, err
			}
			merged := a.coalesce()
			res.CopiesCoalesced += merged
			if merged == 0 {
				break
			}
			a.applyCoalesce()
		}

		a.computeSpillCosts()
		a.simplify()
		spilled := a.sel()
		if len(spilled) == 0 {
			a.rewritePhysical()
			break
		}
		nFrame, nCCM, err := a.insertSpills(spilled)
		if err != nil {
			return nil, err
		}
		res.SpilledRanges += len(spilled)
		res.FrameRanges += nFrame
		res.CCMRanges += nCCM
	}
	res.FrameBytes = f.FrameBytes
	res.CCMBytesUsed = f.CCMBytes
	if opts.Obs != nil {
		opts.Obs.Counter("regalloc.spills").Add(int64(res.SpilledRanges))
		opts.Obs.Counter("regalloc.coalesces").Add(int64(res.CopiesCoalesced))
		opts.Obs.Counter("regalloc.rounds").Add(int64(res.Rounds))
		opts.Obs.Counter("regalloc.frame_ranges").Add(int64(res.FrameRanges))
		opts.Obs.Counter("regalloc.ccm_ranges").Add(int64(res.CCMRanges))
	}
	return res, nil
}
