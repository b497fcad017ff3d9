package intset

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
)

// phase2Item is the set of a crashk stage-2 item from phase 2 on: a share
// spread by the owner hash, one range per bit with gaps below 0x80, so two
// bytes a range.
func phase2Item(rng *rand.Rand, ranges int) Set {
	var b Builder
	for i, x := 0, rng.Intn(40); i < ranges; i++ {
		b.Add(x)
		x += 2 + rng.Intn(62)
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
	top := binary.AppendUvarint(nil, MaxIndex-1) // a gap one below the bound
	for _, seed := range [][]byte{
		{},
		{0},                      // the empty set
		{0, 0xAA},                // and bytes after it that are not its own
		{1, 5},                   // count 1, one byte left
		{1},                      // count 1, nothing left
		{2, 0x80, 0x01, 1, 0x80}, // ends inside a varint
		{1, 3, 0},                // length 0
		{1, 0x80, 0x01, 0},       // length 0 after a long gap
		{2, 1, 1, 0, 1},          // gap 0 after the first range
		{1, 0, 1},                // gap 0 first: the range [0, 1)
		{1, 0x80, 0x00, 1},       // padded gap
		{1, 1, 0x81, 0x00},       // padded length
		{0x81, 0x00, 1, 1},       // padded count
		{3, 1, 1, 1, 1},          // a count the bytes cannot hold
		{2, 0x80, 0x01, 1, 1, 2}, // a long pair, then a short one
		{2, 1, 2, 0x80, 0x01, 1}, // a short pair, then a long one
		{1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 1}, // varint overflow
		append(append([]byte{1}, top...), 1),                               // Hi on the bound
		append(append([]byte{1}, top...), 2),                               // Hi one past it
		append(binary.AppendUvarint(nil, MaxRanges+1), make([]byte, 8)...), // count above MaxRanges
		AppendEncoding(nil, phase2Item(rand.New(rand.NewSource(1)), 1900)),
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
	for _, s := range []Set{{}, FromRange(0, 1), FromRange(5, 900), FromSorted([]int{0, 2, 3, 127, 128, 300}), phase2Item(rng, 200)} {
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
	s := phase2Item(rand.New(rand.NewSource(4)), 1900)
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
// with no fast path: the reference that the codec's four-pair word read is
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
	if !ok || count > MaxRanges || count > uint64((len(b)-pos)/2) {
		return nil, 0, false
	}
	end := uint64(0)
	for i := uint64(0); i < count; i++ {
		gap, ok := varint()
		if !ok {
			return nil, 0, false
		}
		length, ok := varint()
		if !ok || length == 0 || (gap == 0 && i > 0) || gap > MaxIndex || length > MaxIndex || end+gap+length > MaxIndex {
			return nil, 0, false
		}
		rs = append(rs, Range{int32(end + gap), int32(end + gap + length)})
		end += gap + length
	}
	return rs, pos, true
}

// wordSeeds are inputs at the edges of the four-pair word read: a valid
// run of short pairs with, in each of its first four pairs, a zero gap, a
// zero length, or a 0x80 byte; an end that crosses MaxIndex inside a word;
// fewer than four pairs left before bytes that are not the set's own; and
// words that reach into the next encoding.
func wordSeeds() [][]byte {
	base := []byte{6, 3, 2, 1, 4, 7, 1, 2, 2, 5, 3, 9, 1} // six short pairs
	with := func(at int, v ...byte) []byte {
		out := slices.Clone(base[:at])
		out = append(out, v...)
		return append(out, base[at+1:]...)
	}
	seeds := [][]byte{base, append(slices.Clone(base), base...)}
	for lane := 0; lane < 4; lane++ {
		gap, length := 1+2*lane, 2+2*lane
		seeds = append(seeds,
			with(gap, 0), with(length, 0), // a zero gap (valid first) or length
			with(gap, 0x80), with(length, 0x80), // a byte that continues a varint
			with(gap, 0x80, 0x01), with(length, 0x80, 0x01), // a long pair in the lane
		)
	}
	top := binary.AppendUvarint(nil, MaxIndex-10) // ten below the bound
	for _, tail := range [][]byte{
		{1, 1, 1, 1, 1, 1, 1, 1}, // ends one below the bound
		{1, 1, 1, 1, 1, 1, 1, 2}, // ends on it
		{1, 1, 1, 1, 1, 1, 1, 3}, // one past it
		{1, 1, 1, 1, 9, 1, 1, 1}, // crosses it in the third pair
	} {
		seeds = append(seeds, append(append([]byte{5}, top...), append([]byte{1}, tail...)...)) // a long first pair, then four short
	}
	seeds = append(seeds,
		[]byte{3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1},       // three pairs, then bytes that are not theirs
		[]byte{5, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, // four in a word, one left
		[]byte{4, 1, 1, 1, 1, 1, 1, 0x80, 0x01},       // the fourth pair long
		[]byte{4, 1, 1, 1, 1, 1, 1, 1},                // the fourth pair cut short
		append([]byte{2, 4, 4, 5, 5}, base...),        // two pairs, then the next encoding
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
	f.Add(AppendEncoding(nil, phase2Item(rand.New(rand.NewSource(2)), 300)))
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
