package intset

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
)

// phase2Item is the set of a crashk stage-2 item from phase 2 on: a share
// spread by the owner hash, one range per bit with gaps below 0x80, so one
// byte a range. One range in long is two indices long (none if long is
// 0), so the decoders take the 0x00 escape.
func phase2Item(rng *rand.Rand, ranges, long int) Set {
	var b Builder
	for i, x := 0, rng.Intn(40); i < ranges; i++ {
		b.Add(x)
		if long > 0 && rng.Intn(long) == 0 {
			b.Add(x + 1)
		}
		x += 3 + rng.Intn(61)
	}
	return b.Set()
}

// walked is everything a walk of l visits.
func walked(l Lazy) []Range {
	var out []Range
	l.Walk(func(lo, hi int) bool {
		out = append(out, Range{int32(lo), int32(hi)})
		return true
	})
	return out
}

// requireSameAsSet holds a lazy set to the set it stands for, on every
// method the two share.
func requireSameAsSet(t *testing.T, l Lazy, s Set) {
	t.Helper()
	if got := walked(l); !slices.Equal(got, s.Ranges()) {
		t.Fatalf("walk gave %v, want %v", got, s)
	}
	if got := l.Set(); !slices.Equal(got.Ranges(), s.Ranges()) {
		t.Fatalf("Set() = %v, want %v", got, s)
	}
	if l.Len() != s.Len() || l.RangeCount() != s.RangeCount() || l.SizeBits(13) != s.SizeBits(13) {
		t.Fatalf("Len %d, RangeCount %d, SizeBits %d; want %d, %d, %d",
			l.Len(), l.RangeCount(), l.SizeBits(13), s.Len(), s.RangeCount(), s.SizeBits(13))
	}
	lo, hi := l.Bounds()
	if wlo, whi := s.Bounds(); lo != wlo || hi != whi {
		t.Fatalf("Bounds [%d,%d), want [%d,%d)", lo, hi, wlo, whi)
	}
	if l.String() != s.String() {
		t.Fatalf("String %q, want %q", l.String(), s.String())
	}
	// A walk told to stop at range k reads no further.
	for k := 0; k < s.RangeCount() && k < 3; k++ {
		visits := 0
		if l.Walk(func(lo, hi int) bool { visits++; return visits <= k }) || visits != k+1 {
			t.Fatalf("a walk stopping at range %d of %d made %d visits", k, s.RangeCount(), visits)
		}
	}
}

// FuzzSetScan: the validating scan and the eager decode are one decoder.
// For any bytes, Scan accepts exactly when Decode does and takes the same
// bytes; the span then walks, unpacks, counts and bounds as the decoded
// Set does; and both re-encode to the very bytes they came from.
func FuzzSetScan(f *testing.F) {
	top := binary.AppendUvarint(nil, MaxIndex) // the first index on MaxIndex−1
	for _, seed := range [][]byte{
		{},
		{0},                      // the empty set
		{0, 0xAA},                // and bytes after it that are not its own
		{1, 1},                   // the first range at index 0: gap 1 from −1
		{1},                      // count 1, nothing left
		{3, 1, 1},                // a count larger than the bytes left
		{1, 0},                   // 0x00 as the last byte
		{1, 0, 0},                // an escape and its length, no gap
		{1, 0, 0x80, 0x00, 1},    // an escape, then a padded length
		{1, 0, 0, 0},             // a gap of 0 after an escape
		{2, 1, 0, 0, 0},          // the same after a first range
		{1, 0, 5, 1},             // a seven-index range from 0
		{2, 0x80, 0x01, 1},       // a two-byte gap, then a one-byte one
		{2, 1, 0, 0x80, 0x01, 1}, // a one-index range, then a long one
		{2, 0x80, 0x01, 1, 0x80}, // ends inside a varint
		{1, 0x80, 0x00},          // padded gap
		{1, 0, 1, 0x81, 0x00},    // padded gap after an escape
		{0x81, 0x00, 1},          // padded count
		{1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, // varint overflow
		append([]byte{1}, top...),                                                 // Hi on the bound
		append([]byte{1}, binary.AppendUvarint(nil, MaxIndex+1)...),               // Hi one past it
		append([]byte{1, 0}, append(binary.AppendUvarint(nil, MaxIndex-2), 1)...), // [0, MaxIndex): an escape to the bound
		append([]byte{1, 0}, append(binary.AppendUvarint(nil, MaxIndex-1), 1)...), // an escape whose length ends past it
		append([]byte{1, 0}, append(binary.AppendUvarint(nil, 1<<64-1), 1)...),    // a length that wraps when two is added
		append(binary.AppendUvarint(nil, MaxRanges+1), make([]byte, 8)...),        // count above MaxRanges
		AppendEncoding(nil, phase2Item(rand.New(rand.NewSource(1)), 1900, 16)),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		set, width, ok := Decode(data)
		sp, swidth, sok := Scan(data)
		if ok != sok || width != swidth {
			t.Fatalf("% x: Decode (%v, %d bytes), Scan (%v, %d bytes)", data, ok, width, sok, swidth)
		}
		if !ok {
			return
		}
		checkInvariant(t, set)
		if lo, hi := set.Bounds(); sp.lo != lo || sp.hi != hi || sp.len != set.Len() || sp.ranges != set.RangeCount() {
			t.Fatalf("% x: span (bounds [%d,%d), len %d, ranges %d), set %v", data, sp.lo, sp.hi, sp.len, sp.ranges, set)
		}
		requireSameAsSet(t, sp.Lazy(), set)
		if back := AppendEncoding(nil, set); !bytes.Equal(back, data[:width]) {
			t.Fatalf("% x: decoded set re-encodes to % x", data[:width], back)
		}
		if back := sp.Lazy().AppendEncoding(nil); !bytes.Equal(back, data[:width]) {
			t.Fatalf("% x: span re-encodes to % x", data[:width], back)
		}
	})
}

// TestLazyHeld: a held set is the set, at no cost, on every method; the
// zero Lazy is the empty set, held.
func TestLazyHeld(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, s := range []Set{{}, FromRange(0, 1), FromRange(5, 900), FromSorted([]int{0, 2, 3, 127, 128, 300}), phase2Item(rng, 200, 16)} {
		l := Hold(s)
		if got, held := l.Held(); !held || !slices.Equal(got.Ranges(), s.Ranges()) {
			t.Fatalf("Hold(%v).Held() = %v, %v", s, got, held)
		}
		requireSameAsSet(t, l, s)
		if got := l.AppendEncoding(nil); !bytes.Equal(got, AppendEncoding(nil, s)) {
			t.Fatalf("%v: held encoding % x", s, got)
		}
		sp, _, ok := Scan(AppendEncoding(nil, s))
		if !ok {
			t.Fatalf("%v: own encoding refused", s)
		}
		if _, held := sp.Lazy().Held(); held {
			t.Fatalf("%v: a span reports itself held", s)
		}
	}
	var zero Lazy
	if s, held := zero.Held(); !held || !s.Empty() || zero.Len() != 0 || zero.RangeCount() != 0 {
		t.Fatalf("zero Lazy is (%v, %v)", s, held)
	}
}

// TestCodecAllocations: Scan and a walk of the span allocate nothing; Decode
// allocates the ranges once, sized by the count.
func TestCodecAllocations(t *testing.T) {
	s := phase2Item(rand.New(rand.NewSource(4)), 1900, 16)
	enc := AppendEncoding(nil, s)
	var sp Span
	if allocs := testing.AllocsPerRun(50, func() { sp, _, _ = Scan(enc) }); allocs != 0 {
		t.Fatalf("Scan allocated %.0f times", allocs)
	}
	l := sp.Lazy()
	n := 0
	count := func(lo, hi int) bool { n++; return true }
	if allocs := testing.AllocsPerRun(50, func() { l.Walk(count) }); allocs != 0 {
		t.Fatalf("Walk allocated %.0f times", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() { _, _, _ = Decode(enc) }); allocs != 1 {
		t.Fatalf("Decode allocated %.0f times, want 1", allocs)
	}
}

// refDecode is the set encoding by its definition, one varint at a time
// with no fast path: the reference that the codec's eight-gap word read is
// held to. It returns the ranges and the bytes they took, or ok false.
func refDecode(b []byte) (rs []Range, width int, ok bool) {
	pos := 0
	varint := func() (uint64, bool) {
		v, k := binary.Uvarint(b[pos:])
		if k <= 0 || (k > 1 && b[pos+k-1] == 0) {
			return 0, false
		}
		pos += k
		return v, true
	}
	count, ok := varint()
	if !ok || count > MaxRanges || count > uint64(len(b)-pos) {
		return nil, 0, false
	}
	end := int64(-1)
	for i := uint64(0); i < count; i++ {
		length := uint64(1)
		if pos < len(b) && b[pos] == 0 {
			pos++
			extra, ok := varint()
			if !ok || extra > MaxIndex {
				return nil, 0, false
			}
			length = 2 + extra
		}
		gap, ok := varint()
		if !ok || gap == 0 || gap > MaxIndex || end+int64(gap)+int64(length) > MaxIndex {
			return nil, 0, false
		}
		lo := end + int64(gap)
		end = lo + int64(length)
		rs = append(rs, Range{int32(lo), int32(end)})
	}
	return rs, pos, true
}

// wordSeeds are inputs at the edges of the eight-gap word read: a valid
// run of one-byte gaps with, in each of its first eight, a 0x00 escape
// where a gap was, a 0x80 byte, a two-byte gap, a two-index range (valid)
// or an escape followed by a padded length; an end that crosses MaxIndex
// inside a word; fewer than eight ranges left before bytes that are not
// the set's own; and words that reach into the next encoding.
func wordSeeds() [][]byte {
	base := []byte{12, 3, 2, 1, 4, 7, 1, 2, 2, 5, 3, 9, 1} // twelve one-byte gaps
	splice := func(at, drop int, v ...byte) []byte {
		out := slices.Clone(base[:at])
		out = append(out, v...)
		return append(out, base[at+drop:]...)
	}
	seeds := [][]byte{base, append(slices.Clone(base), base...)}
	for lane := 1; lane <= 8; lane++ {
		seeds = append(seeds,
			splice(lane, 1, 0),          // an escape where a gap was
			splice(lane, 1, 0x80),       // a byte that continues a varint
			splice(lane, 1, 0x80, 0x01), // a two-byte gap in the lane
			splice(lane, 0, 0, 0),       // a two-index range in the lane
			splice(lane, 0, 0, 0x80, 0), // an escape, then a padded length
		)
	}
	top := binary.AppendUvarint(nil, MaxIndex-20) // a first range ending 20 below the bound
	for _, tail := range [][]byte{
		{1, 1, 1, 1, 1, 1, 1, 1},  // ends four below the bound
		{1, 1, 1, 1, 1, 1, 1, 5},  // ends on it
		{1, 1, 1, 1, 1, 1, 1, 6},  // one past it
		{1, 1, 1, 1, 13, 1, 1, 1}, // crosses it in the fifth range
	} {
		seeds = append(seeds, append(append([]byte{9}, top...), tail...)) // a long first gap, then eight short
	}
	seeds = append(seeds,
		[]byte{3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1},          // three ranges, then bytes that are not theirs
		[]byte{9, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1},       // eight in a word, one left
		[]byte{8, 1, 1, 1, 1, 1, 1, 1, 0x80, 0x01},       // the eighth gap long
		[]byte{8, 1, 1, 1, 1, 1, 1, 1, 0, 0, 1},          // the eighth range an escape
		[]byte{8, 1, 1, 1, 1, 1, 1, 1},                   // the eighth range cut short
		append([]byte{2, 0, 3, 4, 5}, base...),           // two ranges, then the next encoding
		append([]byte{1, 0, 0}, base[1:]...),             // an escape whose gap is the next word's
		append([]byte{10, 1, 1, 1, 1, 1, 1, 1, 1}, 0, 0), // an escape right after a word, cut short
	)
	return seeds
}

// FuzzSetWords holds Decode and Scan to refDecode on any bytes: the same
// acceptance and width, and on acceptance the same ranges, element count,
// range count and bounds. Its seeds start it from both verdicts.
func FuzzSetWords(f *testing.F) {
	seeds, accepted := wordSeeds(), 0
	for _, seed := range seeds {
		if _, _, ok := refDecode(seed); ok {
			accepted++
		}
		f.Add(seed)
	}
	if accepted < 10 || len(seeds)-accepted < 10 {
		f.Fatalf("%d of %d word seeds accepted; want ten of each verdict", accepted, len(seeds))
	}
	f.Add(AppendEncoding(nil, phase2Item(rand.New(rand.NewSource(2)), 300, 16)))
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wwidth, wok := refDecode(data)
		set, width, ok := Decode(data)
		sp, swidth, sok := Scan(data)
		if ok != wok || sok != wok || width != wwidth || swidth != wwidth {
			t.Fatalf("% x: reference (%v, %d bytes), Decode (%v, %d), Scan (%v, %d)", data, wok, wwidth, ok, width, sok, swidth)
		}
		if !ok {
			return
		}
		if !slices.Equal(set.Ranges(), want) || !slices.Equal(walked(sp.Lazy()), want) {
			t.Fatalf("% x: reference ranges %v, Decode %v, Scan walks %v", data, want, set.Ranges(), walked(sp.Lazy()))
		}
		ref := Set{ranges: want}
		lo, hi := ref.Bounds()
		if sp.len != ref.Len() || sp.ranges != len(want) || sp.lo != lo || sp.hi != hi {
			t.Fatalf("% x: span (len %d, ranges %d, bounds [%d,%d)), reference (%d, %d, [%d,%d))",
				data, sp.len, sp.ranges, sp.lo, sp.hi, ref.Len(), len(want), lo, hi)
		}
	})
}
