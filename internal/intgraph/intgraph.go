// Package intgraph provides the symmetric bit matrix that holds
// Chaitin-style interference graphs. Every node owns a row of whole
// words, so graph construction can add a live set's words to a row
// (AddWord) and a consumer can walk a node's neighbours by scanning its
// row. It is shared by the register allocator and by the CCM allocators
// in internal/core.
package intgraph

import "math/bits"

// Matrix is a symmetric boolean matrix over n nodes, stored as n square
// rows of ⌈n/64⌉ words: bit b%64 of word b/64 in row a is the (a, b)
// entry.
type Matrix struct {
	n, stride int
	bits      []uint64
}

// NewMatrix returns an empty n×n symmetric matrix.
func NewMatrix(n int) *Matrix {
	m := new(Matrix)
	m.Reset(n)
	return m
}

// Reset reinitializes m as an empty n×n matrix, reusing the backing
// storage when it is large enough. The allocators rebuild their
// interference matrices every round; Reset lets a pooled matrix absorb
// those rebuilds without reallocating.
func (m *Matrix) Reset(n int) {
	m.n, m.stride = n, (n+63)/64
	words := n * m.stride
	if cap(m.bits) < words {
		m.bits = make([]uint64, words)
	} else {
		m.bits = m.bits[:words]
		clear(m.bits)
	}
}

// Len returns the node count.
func (m *Matrix) Len() int { return m.n }

// Set marks (a, b) as adjacent.
func (m *Matrix) Set(a, b int) {
	m.bits[a*m.stride+b/64] |= 1 << uint(b%64)
	m.bits[b*m.stride+a/64] |= 1 << uint(a%64)
}

// Has reports whether (a, b) are adjacent.
func (m *Matrix) Has(a, b int) bool {
	return m.bits[a*m.stride+b/64]&(1<<uint(b%64)) != 0
}

// AddWord makes a adjacent to the nodes 64i+k for every set bit k of w,
// a word of row a at a time: they are OR-ed into word i of a's row, and
// a's bit is set in the row of each one that was not already there.
func (m *Matrix) AddWord(a, i int, w uint64) {
	at := a*m.stride + i
	added := w &^ m.bits[at]
	m.bits[at] |= added
	col, bit := a/64, uint64(1)<<uint(a%64)
	for ; added != 0; added &= added - 1 {
		m.bits[(i*64+bits.TrailingZeros64(added))*m.stride+col] |= bit
	}
}

// Row returns node a's row for reading; it aliases the matrix.
func (m *Matrix) Row(a int) []uint64 {
	return m.bits[a*m.stride : (a+1)*m.stride : (a+1)*m.stride]
}
