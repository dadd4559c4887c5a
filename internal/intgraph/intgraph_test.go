package intgraph

import (
	"math/rand"
	"testing"
)

func TestEmpty(t *testing.T) {
	m := NewMatrix(0)
	if m.Len() != 0 {
		t.Fatal("len of empty matrix")
	}
}

func TestSymmetry(t *testing.T) {
	m := NewMatrix(10)
	m.Set(2, 7)
	if !m.Has(2, 7) || !m.Has(7, 2) {
		t.Fatal("edge not symmetric")
	}
	if m.Has(2, 6) || m.Has(7, 7) {
		t.Fatal("phantom edges")
	}
}

func TestDiagonal(t *testing.T) {
	m := NewMatrix(4)
	m.Set(3, 3)
	if !m.Has(3, 3) {
		t.Fatal("self edge lost")
	}
	if m.Has(2, 2) {
		t.Fatal("wrong self edge")
	}
}

// Property: the packed triangle agrees with a reference map under random
// insertions.
func TestAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const n = 73
	m := NewMatrix(n)
	ref := map[[2]int]bool{}
	key := func(a, b int) [2]int {
		if a < b {
			a, b = b, a
		}
		return [2]int{a, b}
	}
	for k := 0; k < 2000; k++ {
		a, b := rng.Intn(n), rng.Intn(n)
		m.Set(a, b)
		ref[key(a, b)] = true
	}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if m.Has(a, b) != ref[key(a, b)] {
				t.Fatalf("mismatch at (%d,%d)", a, b)
			}
		}
	}
}

// Property: adding random words to random rows gives the same symmetric
// matrix as setting each of their bits pair by pair, and each row's words
// read back through Row.
func TestAddWordMatchesSet(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 130
	m, ref := NewMatrix(n), NewMatrix(n)
	for k := 0; k < 300; k++ {
		a, i := rng.Intn(n), rng.Intn((n+63)/64)
		w := rng.Uint64()
		if i == n/64 {
			w &= 1<<(n%64) - 1
		}
		m.AddWord(a, i, w)
		for b := 0; b < 64; b++ {
			if w&(1<<b) != 0 {
				ref.Set(a, i*64+b)
			}
		}
	}
	for a := 0; a < n; a++ {
		row := m.Row(a)
		for b := 0; b < n; b++ {
			if m.Has(a, b) != ref.Has(a, b) || m.Has(a, b) != m.Has(b, a) {
				t.Fatalf("mismatch at (%d,%d)", a, b)
			}
			if got := row[b/64]>>(b%64)&1 != 0; got != ref.Has(a, b) {
				t.Fatalf("row %d bit %d = %v, want %v", a, b, got, ref.Has(a, b))
			}
		}
	}
}
