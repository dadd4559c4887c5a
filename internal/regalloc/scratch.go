package regalloc

import (
	"sync"

	"ccmem/internal/bitset"
	"ccmem/internal/intgraph"
	"ccmem/internal/uf"
)

// scratch is the reusable working storage of one Allocate call: the
// interference-graph bit rows, the liveness arena, and every per-node
// side array the build/coalesce/simplify/select machinery needs. A cold
// compile rebuilds all of this once per round per function; carving it
// from a sync.Pool (one scratch per worker in steady state) replaces
// those rebuild allocations with reset-not-realloc reuse.
//
// Every field is fully reinitialized (sized and zeroed, or reset) by its
// user before reads, so pooled reuse cannot leak state between functions
// — allocation results stay a pure function of the input, which the
// byte-identical determinism contract depends on.
type scratch struct {
	// arena backs every bit set of a round: liveness, the live-across-call
	// and float-class sets, and coalesce's merged-this-pass set.
	arena bitset.Arena

	matrix    intgraph.Matrix
	anyMatrix intgraph.Matrix
	alias     uf.Set

	degree  []int
	cost    []float64
	noSpill []bool
	stack   []int32
	color   []int32
	copies  []copySiteRef

	// computeSpillCosts occurrence records, flattened: occs[occOff[r] :
	// occOff[r+1]] are range r's occurrences in program order.
	occCnt []int32
	occOff []int32
	occs   []occ

	// simplify / sel working sets.
	deg     []int
	removed []bool
	used    []bool
	spilled []int
}

// occ is one occurrence of a live range (computeSpillCosts).
type occ struct {
	block, index int
	isDef        bool
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// sized returns buf resized to n with every element zeroed, reusing the
// backing array when possible.
func sized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	var zero T
	for i := range buf {
		buf[i] = zero
	}
	return buf
}
