// Package bitset provides dense, fixed-capacity bit vectors used by the
// dataflow analyses (liveness, dominators) and the interference graph.
//
// A Set is a value type wrapping a []uint64; the zero Set is empty with
// capacity zero. All binary operations require equal capacity and panic
// otherwise — mismatched capacities in dataflow code are always bugs.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a fixed-capacity bit vector.
type Set struct {
	words []uint64
	n     int // capacity in bits
}

// New returns an empty set with capacity for bits 0..n-1.
func New(n int) Set {
	if n < 0 {
		panic("bitset: negative capacity")
	}
	return Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Len returns the capacity of the set in bits.
func (s Set) Len() int { return s.n }

func (s Set) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, s.n))
	}
}

// Set sets bit i.
func (s Set) Set(i int) {
	s.check(i)
	s.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Clear clears bit i.
func (s Set) Clear(i int) {
	s.check(i)
	s.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// Has reports whether bit i is set.
func (s Set) Has(i int) bool {
	s.check(i)
	return s.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// Words returns the set's backing words for reading, aliasing the set:
// bit i is bit i%64 of word i/64, and bits at or above Len are clear.
func (s Set) Words() []uint64 { return s.words }

// Reset clears every bit.
func (s Set) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Fill sets every bit in [0, Len).
func (s Set) Fill() {
	if len(s.words) == 0 {
		return
	}
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	// Mask the tail beyond n.
	if rem := s.n % wordBits; rem != 0 {
		s.words[len(s.words)-1] &= (1 << uint(rem)) - 1
	}
}

// Copy returns an independent copy of s.
func (s Set) Copy() Set {
	c := Set{words: make([]uint64, len(s.words)), n: s.n}
	copy(c.words, s.words)
	return c
}

// CopyFrom overwrites s with the contents of o.
func (s Set) CopyFrom(o Set) {
	s.sameCap(o)
	copy(s.words, o.words)
}

func (s Set) sameCap(o Set) {
	if s.n != o.n {
		panic(fmt.Sprintf("bitset: capacity mismatch %d vs %d", s.n, o.n))
	}
}

// UnionWith sets s = s ∪ o and reports whether s changed.
func (s Set) UnionWith(o Set) bool {
	s.sameCap(o)
	changed := false
	for i, w := range o.words {
		nw := s.words[i] | w
		if nw != s.words[i] {
			s.words[i] = nw
			changed = true
		}
	}
	return changed
}

// IntersectWith sets s = s ∩ o and reports whether s changed.
func (s Set) IntersectWith(o Set) bool {
	s.sameCap(o)
	changed := false
	for i, w := range o.words {
		nw := s.words[i] & w
		if nw != s.words[i] {
			s.words[i] = nw
			changed = true
		}
	}
	return changed
}

// DifferenceWith sets s = s \ o and reports whether s changed.
func (s Set) DifferenceWith(o Set) bool {
	s.sameCap(o)
	changed := false
	for i, w := range o.words {
		nw := s.words[i] &^ w
		if nw != s.words[i] {
			s.words[i] = nw
			changed = true
		}
	}
	return changed
}

// Intersects reports whether s ∩ o is non-empty.
func (s Set) Intersects(o Set) bool {
	s.sameCap(o)
	for i, w := range o.words {
		if s.words[i]&w != 0 {
			return true
		}
	}
	return false
}

// Equal reports whether s and o contain the same bits.
func (s Set) Equal(o Set) bool {
	if s.n != o.n {
		return false
	}
	for i, w := range o.words {
		if s.words[i] != w {
			return false
		}
	}
	return true
}

// Count returns the number of set bits.
func (s Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Empty reports whether no bits are set.
func (s Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// ForEach calls f for each set bit in ascending order.
func (s Set) ForEach(f func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			f(wi*wordBits + b)
			w &^= 1 << uint(b)
		}
	}
}

// Members returns the set bits in ascending order.
func (s Set) Members() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(i int) { out = append(out, i) })
	return out
}

// Next returns the smallest set bit ≥ i, or -1 if none.
func (s Set) Next(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= s.n {
		return -1
	}
	wi := i / wordBits
	w := s.words[wi] >> uint(i%wordBits)
	if w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(s.words); wi++ {
		if s.words[wi] != 0 {
			return wi*wordBits + bits.TrailingZeros64(s.words[wi])
		}
	}
	return -1
}

// Arena is a bump allocator for Sets: every New carves words out of one
// growing backing slice, and Reset recycles the whole region at once.
// The dataflow passes allocate O(blocks) sets per solve and discard them
// together, which is exactly the arena lifetime; threading one Arena
// through a solver turns those transient sets into reused storage
// (reset-not-realloc). A nil *Arena is valid and falls back to New, so
// arena-accepting code needs no branching at call sites.
//
// Sets carved from an Arena are invalidated by the next Reset; callers
// must not retain them across it. An Arena is not safe for concurrent
// use — pool one per worker.
type Arena struct {
	buf []uint64
	off int
}

// New carves an empty set with capacity n out of the arena (or allocates
// fresh when a is nil).
func (a *Arena) New(n int) Set {
	if a == nil {
		return New(n)
	}
	if n < 0 {
		panic("bitset: negative capacity")
	}
	w := (n + wordBits - 1) / wordBits
	if a.off+w > len(a.buf) {
		grown := make([]uint64, max(2*len(a.buf), a.off+w))
		copy(grown, a.buf[:a.off])
		a.buf = grown
	}
	words := a.buf[a.off : a.off+w : a.off+w]
	for i := range words {
		words[i] = 0
	}
	a.off += w
	return Set{words: words, n: n}
}

// Reset recycles every set carved since the last Reset. The backing
// storage is kept, so a warmed arena allocates nothing in steady state.
func (a *Arena) Reset() {
	if a != nil {
		a.off = 0
	}
}

// String renders the set as "{1, 5, 9}".
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
	})
	b.WriteByte('}')
	return b.String()
}
