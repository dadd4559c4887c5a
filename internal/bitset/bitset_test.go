package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSetClearHas(t *testing.T) {
	s := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Has(i) {
			t.Fatalf("bit %d set in fresh set", i)
		}
		s.Set(i)
		if !s.Has(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	if s.Count() != 8 {
		t.Fatalf("count = %d, want 8", s.Count())
	}
	s.Clear(64)
	if s.Has(64) {
		t.Fatal("bit 64 still set after Clear")
	}
	if s.Count() != 7 {
		t.Fatalf("count = %d, want 7", s.Count())
	}
}

func TestBoundsPanic(t *testing.T) {
	s := New(10)
	for _, i := range []int{-1, 10, 100} {
		i := i
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for index %d", i)
				}
			}()
			s.Set(i)
		}()
	}
}

func TestZeroCapacity(t *testing.T) {
	s := New(0)
	if s.Count() != 0 || !s.Empty() || s.Len() != 0 {
		t.Fatal("zero-capacity set misbehaves")
	}
	s.Fill()
	if s.Count() != 0 {
		t.Fatal("Fill on empty set set bits")
	}
	if s.Next(0) != -1 {
		t.Fatal("Next on empty set")
	}
}

func TestFillRespectsTail(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 128, 130} {
		s := New(n)
		s.Fill()
		if s.Count() != n {
			t.Errorf("Fill(%d): count = %d", n, s.Count())
		}
	}
}

// TestWords: the word view places bit i at bit i%64 of word i/64 and
// aliases the set.
func TestWords(t *testing.T) {
	s := New(70)
	for _, i := range []int{0, 63, 64, 69} {
		s.Set(i)
	}
	w := s.Words()
	if len(w) != 2 || w[0] != 1|1<<63 || w[1] != 1|1<<5 {
		t.Fatalf("Words() = %#x", w)
	}
	s.Clear(69)
	if w[1] != 1 {
		t.Fatalf("Words() does not alias the set: %#x", w)
	}
}

func TestUnionIntersectDifference(t *testing.T) {
	a := New(100)
	b := New(100)
	for i := 0; i < 100; i += 2 {
		a.Set(i)
	}
	for i := 0; i < 100; i += 3 {
		b.Set(i)
	}
	u := a.Copy()
	if !u.UnionWith(b) {
		t.Fatal("union reported no change")
	}
	for i := 0; i < 100; i++ {
		want := i%2 == 0 || i%3 == 0
		if u.Has(i) != want {
			t.Fatalf("union bit %d = %v", i, u.Has(i))
		}
	}
	x := a.Copy()
	x.IntersectWith(b)
	for i := 0; i < 100; i++ {
		want := i%6 == 0
		if x.Has(i) != want {
			t.Fatalf("intersect bit %d = %v", i, x.Has(i))
		}
	}
	d := a.Copy()
	d.DifferenceWith(b)
	for i := 0; i < 100; i++ {
		want := i%2 == 0 && i%3 != 0
		if d.Has(i) != want {
			t.Fatalf("difference bit %d = %v", i, d.Has(i))
		}
	}
}

func TestUnionWithReportsChange(t *testing.T) {
	a := New(64)
	b := New(64)
	b.Set(5)
	if !a.UnionWith(b) {
		t.Fatal("first union must change")
	}
	if a.UnionWith(b) {
		t.Fatal("second union must not change")
	}
}

func TestCapacityMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on capacity mismatch")
		}
	}()
	New(10).UnionWith(New(11))
}

func TestIntersects(t *testing.T) {
	a, b := New(70), New(70)
	a.Set(69)
	if a.Intersects(b) {
		t.Fatal("empty b intersects")
	}
	b.Set(69)
	if !a.Intersects(b) {
		t.Fatal("shared bit not detected")
	}
}

func TestMembersAndForEachOrder(t *testing.T) {
	s := New(200)
	want := []int{3, 64, 65, 100, 199}
	for _, i := range want {
		s.Set(i)
	}
	got := s.Members()
	if len(got) != len(want) {
		t.Fatalf("members = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("members = %v, want %v", got, want)
		}
	}
}

func TestNext(t *testing.T) {
	s := New(200)
	s.Set(5)
	s.Set(64)
	s.Set(199)
	cases := []struct{ from, want int }{
		{0, 5}, {5, 5}, {6, 64}, {64, 64}, {65, 199}, {199, 199}, {-3, 5},
	}
	for _, c := range cases {
		if got := s.Next(c.from); got != c.want {
			t.Errorf("Next(%d) = %d, want %d", c.from, got, c.want)
		}
	}
	s.Clear(199)
	if got := s.Next(65); got != -1 {
		t.Errorf("Next past last = %d, want -1", got)
	}
}

func TestEqualAndCopyIndependence(t *testing.T) {
	a := New(80)
	a.Set(7)
	b := a.Copy()
	if !a.Equal(b) {
		t.Fatal("copy not equal")
	}
	b.Set(8)
	if a.Equal(b) {
		t.Fatal("copy aliases original")
	}
	if a.Has(8) {
		t.Fatal("mutating copy changed original")
	}
}

func TestString(t *testing.T) {
	s := New(10)
	s.Set(1)
	s.Set(9)
	if got := s.String(); got != "{1, 9}" {
		t.Fatalf("String = %q", got)
	}
}

// Property: union is commutative and idempotent; difference then union
// restores a superset relationship.
func TestQuickSetAlgebra(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(xs, ys []uint8) bool {
		const n = 256
		a, b := New(n), New(n)
		for _, x := range xs {
			a.Set(int(x))
		}
		for _, y := range ys {
			b.Set(int(y))
		}
		ab := a.Copy()
		ab.UnionWith(b)
		ba := b.Copy()
		ba.UnionWith(a)
		if !ab.Equal(ba) {
			return false
		}
		again := ab.Copy()
		again.UnionWith(b)
		if !again.Equal(ab) {
			return false
		}
		d := a.Copy()
		d.DifferenceWith(b)
		if d.Intersects(b) {
			return false
		}
		d.UnionWith(b)
		// d must now contain everything in a.
		chk := a.Copy()
		chk.DifferenceWith(d)
		return chk.Empty()
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: Count equals the number of distinct set indices.
func TestQuickCount(t *testing.T) {
	f := func(xs []uint16) bool {
		s := New(1 << 16)
		seen := map[uint16]bool{}
		for _, x := range xs {
			s.Set(int(x))
			seen[x] = true
		}
		return s.Count() == len(seen)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
