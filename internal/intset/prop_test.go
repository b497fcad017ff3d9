package intset

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// Property tests: Set's coalesced-range representation is checked against
// a map[int]bool model over randomized memberships, including the
// structural invariant (sorted, disjoint, non-adjacent ranges) that the
// wire-size accounting depends on.

// randomModel draws a random subset of [0, universe) biased toward runs,
// the shape protocols actually exchange.
func randomModel(rng *rand.Rand, universe int) map[int]bool {
	m := make(map[int]bool)
	for x := 0; x < universe; {
		if rng.Intn(3) == 0 { // start a run
			runLen := rng.Intn(universe/4 + 1)
			for i := 0; i < runLen && x < universe; i++ {
				m[x] = true
				x++
			}
		}
		x += rng.Intn(4) + 1
	}
	return m
}

func sortedKeys(m map[int]bool) []int {
	keys := make([]int, 0, len(m))
	for x := range m {
		keys = append(keys, x)
	}
	sort.Ints(keys)
	return keys
}

func checkInvariant(t *testing.T, s Set) {
	t.Helper()
	prevLo, prevHi := math.MinInt, math.MinInt
	count := 0
	s.ForEachRange(func(lo, hi int) {
		if lo >= hi {
			t.Fatalf("empty range [%d,%d)", lo, hi)
		}
		if lo <= prevHi {
			// lo == prevHi would be adjacent and must have coalesced.
			t.Fatalf("range [%d,%d) not disjoint/non-adjacent after [%d,%d)", lo, hi, prevLo, prevHi)
		}
		if rs := s.Ranges(); int(rs[count].Lo) != lo || int(rs[count].Hi) != hi {
			t.Fatalf("Ranges()[%d] = %v, ForEachRange gave [%d,%d)", count, rs[count], lo, hi)
		}
		prevLo, prevHi = lo, hi
		count++
	})
	if count != s.RangeCount() {
		t.Fatalf("ForEachRange visited %d ranges, RangeCount %d", count, s.RangeCount())
	}
}

func checkAgainstModel(t *testing.T, s Set, model map[int]bool, universe int) {
	t.Helper()
	checkInvariant(t, s)
	if s.Len() != len(model) {
		t.Fatalf("Len %d, model %d", s.Len(), len(model))
	}
	if s.Empty() != (len(model) == 0) {
		t.Fatalf("Empty %v with model size %d", s.Empty(), len(model))
	}
	for x := -1; x <= universe; x++ {
		if s.Contains(x) != model[x] {
			t.Fatalf("Contains(%d) = %v, model %v", x, s.Contains(x), model[x])
		}
	}
	want := sortedKeys(model)
	wantLo, wantHi := 0, 0
	if len(want) > 0 {
		wantLo, wantHi = want[0], want[len(want)-1]+1
	}
	if lo, hi := s.Bounds(); lo != wantLo || hi != wantHi {
		t.Fatalf("Bounds [%d,%d), model [%d,%d)", lo, hi, wantLo, wantHi)
	}
	got := s.Elements()
	if len(got) != len(want) {
		t.Fatalf("Elements len %d, model %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Elements[%d] = %d, model %d", i, got[i], want[i])
		}
	}
	// ForEach must agree with Elements (increasing order).
	i := 0
	s.ForEach(func(x int) {
		if i >= len(want) || x != want[i] {
			t.Fatalf("ForEach out of order at %d", x)
		}
		i++
	})
	if idxBits := 17; s.SizeBits(idxBits) != 2*idxBits*s.RangeCount() {
		t.Fatalf("SizeBits inconsistent with RangeCount")
	}
}

func TestSetVsModel(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	for trial := 0; trial < 200; trial++ {
		universe := rng.Intn(200) + 1
		model := randomModel(rng, universe)
		keys := sortedKeys(model)

		fromSorted := FromSorted(keys)
		checkAgainstModel(t, fromSorted, model, universe)

		// The Builder path must produce the identical structure whether fed
		// one index or one run at a time.
		var b Builder
		for i := 0; i < len(keys); {
			j := i
			for j+1 < len(keys) && keys[j+1] == keys[j]+1 {
				j++
			}
			if rng.Intn(2) == 0 {
				b.AddRange(keys[i], keys[j]+1)
			} else {
				for k := i; k <= j; k++ {
					b.Add(keys[k])
				}
			}
			i = j + 1
		}
		built := b.Set()
		checkAgainstModel(t, built, model, universe)
		if built.RangeCount() != fromSorted.RangeCount() {
			t.Fatalf("builder produced %d ranges, FromSorted %d", built.RangeCount(), fromSorted.RangeCount())
		}

		// So must FromRanges over a caller's copy of those ranges, and it
		// must hold them in place.
		buf := append([]Range(nil), built.Ranges()...)
		adopted := FromRanges(buf)
		checkAgainstModel(t, adopted, model, universe)
		if n := adopted.RangeCount(); n != len(buf) || (n > 0 && &adopted.ranges[0] != &buf[0]) {
			t.Fatalf("FromRanges left its buffer: %d ranges for a buffer of %d", n, len(buf))
		}
	}
}

func TestFromRangeVsModel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		lo, hi := rng.Intn(50), rng.Intn(50)
		s := FromRange(lo, hi)
		model := make(map[int]bool)
		for x := lo; x < hi; x++ {
			model[x] = true
		}
		checkAgainstModel(t, s, model, 60)
	}
}

// TestEdgesVsModel: the extremes a Set can hold — elements at −MaxIndex,
// −1, 0 and MaxIndex−1, alone, together and inside runs that reach them —
// agree with the map model through the same int API as everything else.
func TestEdgesVsModel(t *testing.T) {
	const lowest, highest = -MaxIndex, MaxIndex - 1
	for _, keys := range [][]int{
		{lowest}, {-1}, {0}, {highest},
		{lowest, -1, 0, highest},
		{lowest, lowest + 1, -2, -1, 0, 1, highest - 1, highest},
		{lowest, lowest + 2, highest - 2, highest},
	} {
		model := make(map[int]bool)
		for _, x := range keys {
			model[x] = true
		}
		var byOne, byRun Builder
		for i := 0; i < len(keys); {
			j := i
			for j+1 < len(keys) && keys[j+1] == keys[j]+1 {
				j++
			}
			byRun.AddRange(keys[i], keys[j]+1)
			i = j + 1
		}
		for _, x := range keys {
			byOne.Add(x)
		}
		for _, s := range []Set{FromSorted(keys), byOne.Set(), byRun.Set()} {
			checkInvariant(t, s)
			if s.Len() != len(keys) {
				t.Fatalf("%v: Len %d, model %d", keys, s.Len(), len(keys))
			}
			if lo, hi := s.Bounds(); lo != keys[0] || hi != keys[len(keys)-1]+1 {
				t.Fatalf("%v: Bounds [%d,%d)", keys, lo, hi)
			}
			for _, x := range keys {
				for probe := x - 2; probe <= x+2; probe++ {
					if s.Contains(probe) != model[probe] {
						t.Fatalf("%v: Contains(%d) = %v, model %v", keys, probe, s.Contains(probe), model[probe])
					}
				}
			}
			var walked []int
			s.ForEachRange(func(lo, hi int) {
				for x := lo; x < hi && len(walked) <= len(keys); x++ {
					walked = append(walked, x)
				}
			})
			if !reflect.DeepEqual(walked, keys) {
				t.Fatalf("ForEachRange walked %v, model %v", walked, keys)
			}
		}
	}
	// The widest range there is: its length does not fit an int32.
	if s := FromRange(-MaxIndex, MaxIndex); s.Len() != 2*MaxIndex || !s.Contains(lowest) || !s.Contains(highest) {
		t.Fatalf("FromRange(-MaxIndex, MaxIndex): Len %d", s.Len())
	}
}

// TestBeyondBoundPanics: an index that does not fit must stop the program
// with its value in the message; wrapped into int32 it would be a
// valid-looking range somewhere else.
func TestBeyondBoundPanics(t *testing.T) {
	cases := []struct {
		name  string
		build func()
		index string
	}{
		{"Add(MaxIndex)", func() { new(Builder).Add(MaxIndex) }, "2147483647"},
		{"Add(-MaxIndex-1)", func() { new(Builder).Add(-MaxIndex - 1) }, "-2147483648"},
		{"Add(1<<32)", func() { new(Builder).Add(1 << 32) }, "4294967296"},
		{"AddRange(0, 1<<31)", func() { new(Builder).AddRange(0, 1<<31) }, "2147483647"},
		{"AddRange(-1<<31, 0)", func() { new(Builder).AddRange(-1<<31, 0) }, "-2147483648"},
		{"AddRange after a range", func() {
			var b Builder
			b.AddRange(0, 10)
			b.AddRange(10, 1<<31+5) // would coalesce: the end must still be checked
		}, "2147483652"},
		{"FromRange(5, 1<<31)", func() { FromRange(5, 1<<31) }, "2147483647"},
		{"FromRange(-1<<40, 0)", func() { FromRange(-1<<40, 0) }, "-1099511627776"},
		{"FromSorted", func() { FromSorted([]int{1, MaxIndex}) }, "2147483647"},
	}
	for _, c := range cases {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, c.index) {
					t.Errorf("%s: panic %q, want one naming index %s", c.name, msg, c.index)
				}
			}()
			c.build()
		}()
	}
	// Degenerate ranges stay empty, not errors, wherever they lie.
	if !FromRange(1<<40, 1<<40).Empty() {
		t.Error("FromRange(x, x) beyond the bound is not the empty set")
	}
}
