package bitset

import (
	"testing"
	"testing/quick"

	"mobicol/internal/rng"
)

func TestAddHasRemove(t *testing.T) {
	s := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Has(i) {
			t.Fatalf("fresh set has %d", i)
		}
		s.Add(i)
		if !s.Has(i) {
			t.Fatalf("Add(%d) not visible", i)
		}
	}
	if s.Count() != 8 {
		t.Fatalf("Count = %d, want 8", s.Count())
	}
	s.Remove(64)
	if s.Has(64) || s.Count() != 7 {
		t.Fatal("Remove(64) failed")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	s := New(10)
	for _, f := range []func(){
		func() { s.Add(10) },
		func() { s.Add(-1) },
		func() { s.Has(10) },
		func() { s.Remove(100) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("out-of-range access did not panic")
				}
			}()
			f()
		}()
	}
}

func TestFillTrimsTail(t *testing.T) {
	s := New(70)
	s.Fill()
	if s.Count() != 70 {
		t.Fatalf("Fill count = %d, want 70", s.Count())
	}
}

func TestClearEmpty(t *testing.T) {
	s := New(100)
	if !s.Empty() {
		t.Fatal("new set not empty")
	}
	s.Add(50)
	if s.Empty() {
		t.Fatal("set with element reports empty")
	}
	s.Remove(50)
	if !s.Empty() || s.Count() != 0 {
		t.Fatal("set emptied by Remove reports non-empty")
	}
}

func TestSetAlgebra(t *testing.T) {
	a, b := New(200), New(200)
	for i := 0; i < 200; i += 2 {
		a.Add(i) // evens
	}
	for i := 0; i < 200; i += 3 {
		b.Add(i) // multiples of 3
	}
	union := a.Clone()
	union.Or(b)
	inter := a.Clone()
	inter.And(b)
	diff := a.Clone()
	diff.AndNot(b)
	// Inclusion–exclusion.
	if union.Count() != a.Count()+b.Count()-inter.Count() {
		t.Fatal("inclusion-exclusion violated")
	}
	if diff.Count() != a.Count()-inter.Count() {
		t.Fatal("difference count wrong")
	}
	for i := 0; i < 200; i++ {
		if inter.Has(i) != (i%6 == 0) {
			t.Fatalf("intersection wrong at %d", i)
		}
	}
}

func TestNextSet(t *testing.T) {
	s := New(300)
	for _, i := range []int{5, 64, 200, 299} {
		s.Add(i)
	}
	cases := []struct{ from, want int }{
		{0, 5}, {5, 5}, {6, 64}, {65, 200}, {201, 299}, {299, 299}, {300, -1}, {-5, 5},
	}
	for _, c := range cases {
		if got := s.NextSet(c.from); got != c.want {
			t.Fatalf("NextSet(%d) = %d, want %d", c.from, got, c.want)
		}
	}
	if New(10).NextSet(0) != -1 {
		t.Fatal("NextSet on empty set should be -1")
	}
}

func TestForEachAndSliceOrdered(t *testing.T) {
	s := New(150)
	want := []int{0, 7, 63, 64, 100, 149}
	for _, i := range want {
		s.Add(i)
	}
	var got []int
	s.ForEach(func(i int) { got = append(got, i) })
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach visited %v, want %v", got, want)
		}
	}
}

func TestString(t *testing.T) {
	s := New(20)
	s.Add(1)
	s.Add(15)
	if got := s.String(); got != "{1, 15}" {
		t.Fatalf("String = %q", got)
	}
	if got := New(5).String(); got != "{}" {
		t.Fatalf("empty String = %q", got)
	}
}

func TestCopyAndCloneIndependence(t *testing.T) {
	a := New(80)
	a.Add(10)
	b := a.Clone()
	b.Add(20)
	if a.Has(20) {
		t.Fatal("Clone shares storage")
	}
	if !b.Has(10) {
		t.Fatal("Clone missed an element")
	}
}

func TestMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("capacity mismatch did not panic")
		}
	}()
	New(10).Or(New(20))
}

// Property: a set built from a random membership slice reproduces it bit
// for bit, and Count matches the number of trues.
func TestQuickMembership(t *testing.T) {
	f := func(members []bool) bool {
		s := New(len(members))
		want := 0
		for i, m := range members {
			if m {
				s.Add(i)
				want++
			}
		}
		if s.Count() != want {
			return false
		}
		for i, m := range members {
			if s.Has(i) != m {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: De Morgan-ish identity |a| = |a∩b| + |a\b|.
func TestQuickCountSplit(t *testing.T) {
	src := rng.New(99)
	f := func() bool {
		n := 1 + src.Intn(300)
		a, b := New(n), New(n)
		for i := 0; i < n; i++ {
			if src.Bool(0.4) {
				a.Add(i)
			}
			if src.Bool(0.4) {
				b.Add(i)
			}
		}
		inter, diff := a.Clone(), a.Clone()
		inter.And(b)
		diff.AndNot(b)
		return a.Count() == inter.Count()+diff.Count()
	}
	if err := quick.Check(func(uint8) bool { return f() }, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
