package intset

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestFromSorted(t *testing.T) {
	s := FromSorted([]int{1, 2, 3, 7, 9, 10})
	if s.Len() != 6 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.RangeCount() != 3 {
		t.Fatalf("RangeCount = %d, want 3 (1-3, 7, 9-10)", s.RangeCount())
	}
	for _, x := range []int{1, 2, 3, 7, 9, 10} {
		if !s.Contains(x) {
			t.Errorf("missing %d", x)
		}
	}
	for _, x := range []int{0, 4, 6, 8, 11, -5} {
		if s.Contains(x) {
			t.Errorf("spurious %d", x)
		}
	}
}

func TestEmpty(t *testing.T) {
	var s Set
	if !s.Empty() || s.Len() != 0 || s.Contains(0) {
		t.Fatal("zero value not empty")
	}
	if got := s.Elements(); len(got) != 0 {
		t.Fatalf("Elements = %v", got)
	}
	if s.String() != "{}" {
		t.Fatalf("String = %q", s.String())
	}
}

func TestFromRange(t *testing.T) {
	s := FromRange(5, 9)
	if s.Len() != 4 || !s.Contains(5) || !s.Contains(8) || s.Contains(9) {
		t.Fatalf("FromRange wrong: %v", s)
	}
	if !FromRange(3, 3).Empty() || !FromRange(5, 2).Empty() {
		t.Fatal("degenerate ranges not empty")
	}
}

func TestNonIncreasingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSorted([]int{3, 3})
}

// TestFromRanges: FromRanges adopts any ranges a Builder could have built,
// sharing their storage, and refuses every list that breaks the Set
// invariant rather than hold it.
func TestFromRanges(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		var b Builder
		for x := rng.Intn(5) - 2; x < 300; x += 1 + rng.Intn(8) {
			hi := x + 1 + rng.Intn(4)
			b.AddRange(x, hi)
			x = hi
		}
		want := b.Set()
		rs := want.Ranges()
		got := FromRanges(rs)
		if got.String() != want.String() || len(rs) > 0 && &got.Ranges()[0] != &rs[0] {
			t.Fatalf("FromRanges(%v) = %v, not the same set over the same ranges", want, got)
		}
	}
	if !FromRanges(nil).Empty() {
		t.Fatal("FromRanges(nil) is not empty")
	}
	for _, rs := range [][]Range{
		{{3, 3}},                   // empty
		{{5, 2}},                   // reversed
		{{0, 4}, {4, 6}},           // adjacent
		{{0, 4}, {2, 6}},           // overlapping
		{{7, 9}, {0, 2}},           // out of order
		{{-MaxIndex - 1, 0}},       // below the bound
		{{0, 1}, {5, 6}, {6, 7}},   // adjacent at the end
		{{0, 1}, {3, 2}, {10, 11}}, // reversed in the middle
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("FromRanges(%v) did not panic", rs)
				}
			}()
			FromRanges(rs)
		}()
	}
}

func TestBuilderAddRange(t *testing.T) {
	var b Builder
	b.AddRange(0, 5)
	b.AddRange(5, 8) // adjacent: coalesce
	b.Add(9)
	b.AddRange(20, 22)
	s := b.Set()
	if s.Len() != 11 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.RangeCount() != 3 {
		t.Fatalf("RangeCount = %d, want 3", s.RangeCount())
	}
}

func TestSizeBits(t *testing.T) {
	s := FromSorted([]int{1, 5, 6, 7, 100})
	// ranges: {1},{5-7},{100} → 3 ranges × 2 words × 10 bits.
	if got := s.SizeBits(10); got != 60 {
		t.Fatalf("SizeBits = %d, want 60", got)
	}
}

func TestString(t *testing.T) {
	s := FromSorted([]int{1, 3, 4, 5})
	if got := s.String(); got != "{1,3-5}" {
		t.Fatalf("String = %q", got)
	}
}

// Property: Elements(FromSorted(xs)) == xs for any strictly increasing xs.
func TestQuickRoundTrip(t *testing.T) {
	f := func(raw []uint16) bool {
		m := make(map[int]bool)
		for _, v := range raw {
			m[int(v)] = true
		}
		xs := make([]int, 0, len(m))
		for v := range m {
			xs = append(xs, v)
		}
		sort.Ints(xs)
		s := FromSorted(xs)
		got := s.Elements()
		if len(got) != len(xs) || s.Len() != len(xs) {
			return false
		}
		for i := range xs {
			if got[i] != xs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Contains agrees with membership, including boundary probes.
func TestQuickContains(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(200)
		member := make(map[int]bool)
		xs := make([]int, 0, n)
		x := 0
		for i := 0; i < n; i++ {
			x += 1 + rng.Intn(3)
			xs = append(xs, x)
			member[x] = true
		}
		s := FromSorted(xs)
		for probe := 0; probe <= x+2; probe++ {
			if s.Contains(probe) != member[probe] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: ForEach visits exactly Elements in order.
func TestQuickForEach(t *testing.T) {
	f := func(raw []uint8) bool {
		m := make(map[int]bool)
		for _, v := range raw {
			m[int(v)] = true
		}
		xs := make([]int, 0, len(m))
		for v := range m {
			xs = append(xs, v)
		}
		sort.Ints(xs)
		s := FromSorted(xs)
		var visited []int
		s.ForEach(func(v int) { visited = append(visited, v) })
		if len(visited) != len(xs) {
			return false
		}
		for i := range xs {
			if visited[i] != xs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
