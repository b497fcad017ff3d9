// Package intset provides a compact sorted integer-set representation as
// coalesced half-open ranges. Download protocols exchange large index sets
// (e.g., "send me the values of bits 0..32767") whose natural structure is
// a few contiguous runs plus stragglers; ranges keep both the in-memory
// footprint and the accounted message size proportional to the run count
// rather than the element count.
//
// A range is held as two int32: from phase 2 on crashk exchanges sets with
// about one range per bit, so the bytes of a range are the bytes of every
// decoded or partitioned set. The API speaks int; an index beyond
// ±MaxIndex is refused where a set is built, never wrapped.
package intset

import (
	"fmt"
	"math"
	"sort"
)

// MaxIndex bounds every range end a Set can hold: −MaxIndex ≤ Lo and
// Hi ≤ MaxIndex, so elements lie in [−MaxIndex, MaxIndex).
const MaxIndex = math.MaxInt32

// Range is the half-open interval [Lo, Hi).
type Range struct {
	Lo, Hi int32
}

// checkBounds panics if [lo, hi) cannot be held: a protocol bug, which
// must not wrap into a valid-looking range. The message is built out of
// line so that the check itself inlines into Add and AddRange.
func checkBounds(lo, hi int) {
	if lo < -MaxIndex || hi > MaxIndex {
		panicBounds(lo, hi)
	}
}

func panicBounds(lo, hi int) {
	if lo < -MaxIndex {
		panic(fmt.Sprintf("intset: index %d below the bound %d", lo, -MaxIndex))
	}
	panic(fmt.Sprintf("intset: index %d beyond the bound %d", hi-1, MaxIndex-1))
}

// Set is a sorted sequence of disjoint, non-adjacent ranges. The zero
// value is the empty set. Construct with Builder or FromSorted to maintain
// the invariant.
type Set struct {
	ranges []Range
}

// FromSorted builds a Set from indices in strictly increasing order,
// coalescing adjacent runs. It panics if the input is not strictly
// increasing (a protocol bug, not an input condition).
func FromSorted(indices []int) Set {
	var s Set
	for _, x := range indices {
		s.appendOne(x)
	}
	return s
}

// FromRanges returns the Set whose ranges are rs, which it adopts: rs
// must be in increasing order, disjoint and non-adjacent, and the caller
// writes it no more. A walk that counted its ranges beforehand fills one
// buffer, or carves one backing array into capacity-capped parts, with no
// call per element, and checks the result once here. It panics if rs
// breaks the Set invariant (a protocol bug) or starts below −MaxIndex.
func FromRanges(rs []Range) Set {
	for i, r := range rs {
		if r.Hi <= r.Lo || r.Lo < -MaxIndex || i > 0 && r.Lo <= rs[i-1].Hi {
			panic(fmt.Sprintf("intset: range %d [%d,%d) is empty, out of order or touches the one before", i, r.Lo, r.Hi))
		}
	}
	return Set{ranges: rs}
}

// FromRange returns the set [lo, hi).
func FromRange(lo, hi int) Set {
	if hi <= lo {
		return Set{}
	}
	checkBounds(lo, hi)
	return Set{ranges: []Range{{int32(lo), int32(hi)}}}
}

func (s *Set) appendOne(x int) {
	checkBounds(x, x+1)
	n := len(s.ranges)
	if n > 0 {
		last := &s.ranges[n-1]
		if x < int(last.Hi) {
			panic(fmt.Sprintf("intset: indices not strictly increasing at %d", x))
		}
		if x == int(last.Hi) {
			last.Hi++
			return
		}
	}
	s.ranges = append(s.ranges, Range{int32(x), int32(x + 1)})
}

// Len returns the number of elements.
func (s Set) Len() int {
	n := 0
	for _, r := range s.ranges {
		n += int(r.Hi) - int(r.Lo)
	}
	return n
}

// Empty reports whether the set has no elements.
func (s Set) Empty() bool { return len(s.ranges) == 0 }

// RangeCount returns the number of coalesced ranges — the wire cost unit.
func (s Set) RangeCount() int { return len(s.ranges) }

// Bounds returns the smallest half-open interval [lo, hi) holding every
// element: the ranges are sorted, so it is the first Lo and the last Hi.
// The empty set has bounds [0, 0).
func (s Set) Bounds() (lo, hi int) {
	if len(s.ranges) == 0 {
		return 0, 0
	}
	return int(s.ranges[0].Lo), int(s.ranges[len(s.ranges)-1].Hi)
}

// Contains reports membership.
func (s Set) Contains(x int) bool {
	i := sort.Search(len(s.ranges), func(i int) bool { return int(s.ranges[i].Hi) > x })
	return i < len(s.ranges) && int(s.ranges[i].Lo) <= x
}

// ForEachRange calls fn for every coalesced range [lo, hi) in increasing
// order — the natural unit for wire encoding.
func (s Set) ForEachRange(fn func(lo, hi int)) {
	for _, r := range s.ranges {
		fn(int(r.Lo), int(r.Hi))
	}
}

// Ranges returns the coalesced ranges in increasing order: ForEachRange
// for a caller that stops at the first range deciding its question. The
// slice is the set's own and must not be written.
func (s Set) Ranges() []Range { return s.ranges }

// ForEach calls fn for every element in increasing order.
func (s Set) ForEach(fn func(x int)) {
	for _, r := range s.ranges {
		for x := int(r.Lo); x < int(r.Hi); x++ {
			fn(x)
		}
	}
}

// Elements materializes the set as a sorted slice.
func (s Set) Elements() []int {
	out := make([]int, 0, s.Len())
	s.ForEach(func(x int) { out = append(out, x) })
	return out
}

// SizeBits returns the accounted wire size: two idxBits words per range.
func (s Set) SizeBits(idxBits int) int { return 2 * idxBits * len(s.ranges) }

// String renders the set compactly for traces.
func (s Set) String() string {
	out := "{"
	for i, r := range s.ranges {
		if i > 0 {
			out += ","
		}
		if r.Hi == r.Lo+1 {
			out += fmt.Sprintf("%d", r.Lo)
		} else {
			out += fmt.Sprintf("%d-%d", r.Lo, r.Hi-1)
		}
	}
	return out + "}"
}

// Builder accumulates strictly increasing indices into a Set.
type Builder struct {
	set Set
}

// Add appends x, which must exceed every previously added index.
func (b *Builder) Add(x int) { b.set.appendOne(x) }

// AddRange appends [lo, hi), which must start at or after the current end.
func (b *Builder) AddRange(lo, hi int) {
	if hi <= lo {
		return
	}
	checkBounds(lo, hi)
	if n := len(b.set.ranges); n > 0 {
		last := &b.set.ranges[n-1]
		if lo < int(last.Hi) {
			panic(fmt.Sprintf("intset: range [%d,%d) overlaps existing end %d", lo, hi, last.Hi))
		}
		if lo == int(last.Hi) {
			last.Hi = int32(hi)
			return
		}
	}
	b.set.ranges = append(b.set.ranges, Range{int32(lo), int32(hi)})
}

// Set returns the accumulated set.
func (b *Builder) Set() Set { return b.set }
