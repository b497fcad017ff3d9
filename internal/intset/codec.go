package intset

import "encoding/binary"

// The set encoding (docs/SPEC.md §2.1): the range count, then one
// (gap-from-previous-end, length) pair per range, every value an unsigned
// varint. From phase 2 on nearly every pair crashk sends is two values
// below 0x80, which are their own varints: two bytes a range. Only
// non-negative sets are encoded; the first gap is from 0.
//
// The decoders accept exactly what AppendEncoding can emit: lengths ≥ 1,
// gaps ≥ 1 after the first range (a gap of 0 would have been coalesced),
// minimal varints, every index ≤ MaxIndex, and a count no larger than
// MaxRanges and than half the bytes after it. So a decoded set re-encodes
// to the bytes it came from.

// MaxRanges bounds the range count of an encoded set against hostile
// input.
const MaxRanges = 1 << 20

// AppendEncoding appends the encoding of s, which must hold no negative
// index, to dst.
func AppendEncoding(dst []byte, s Set) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s.ranges)))
	prevEnd := int64(0)
	for _, rg := range s.ranges {
		lo, hi := int64(rg.Lo), int64(rg.Hi)
		gap, length := uint64(lo-prevEnd), uint64(hi-lo)
		if gap|length < 0x80 {
			dst = append(dst, byte(gap), byte(length))
		} else {
			dst = binary.AppendUvarint(dst, gap)
			dst = binary.AppendUvarint(dst, length)
		}
		prevEnd = hi
	}
	return dst
}

// Decode decodes the encoding at the front of b into a Set whose ranges
// are allocated once, sized by the count. width is the number of bytes
// the encoding took; ok is false if b does not start with one.
func Decode(b []byte) (s Set, width int, ok bool) {
	count, k, ok := header(b)
	if !ok {
		return Set{}, 0, false
	}
	ranges := make([]Range, count)
	w, _, _, _, ok := pairs(b[k:], count, ranges)
	if !ok {
		return Set{}, 0, false
	}
	return Set{ranges: ranges}, k + w, true
}

// Span is a set held as its encoding, which Scan has validated completely
// but not turned into ranges.
type Span struct {
	enc                 []byte
	ranges, len, lo, hi int
}

// Scan validates the encoding at the front of b exactly as Decode does,
// without allocating, and returns it with its range count, element count
// and bounds. The span aliases b, which must not be written while the
// span is in use.
func Scan(b []byte) (sp Span, width int, ok bool) {
	count, k, ok := header(b)
	if !ok {
		return Span{}, 0, false
	}
	w, elems, lo, hi, ok := pairs(b[k:], count, nil)
	if !ok {
		return Span{}, 0, false
	}
	width = k + w
	return Span{enc: b[:width:width], ranges: count, len: elems, lo: lo, hi: hi}, width, true
}

// Lazy returns the set sp encodes, held as sp itself: sp must not be
// written afterwards.
func (sp *Span) Lazy() Lazy { return Lazy{span: sp} }

// header reads an encoding's range count. A range costs at least two
// bytes, so a count above half of what follows is refused before it sizes
// anything.
func header(b []byte) (count, width int, ok bool) {
	n, k := minimalUvarint(b)
	if k == 0 || n > MaxRanges || n > uint64((len(b)-k)/2) {
		return 0, 0, false
	}
	return int(n), k, true
}

// pairs validates count pairs at the front of b and returns the bytes
// they took, their element count, the start of the first range and the
// end of the last (both 0 for no range); when out is not nil, range i is
// written to out[i]. Pairs that pass make ranges that are sorted,
// disjoint and not adjacent, so they are stored as they are, with no
// Builder check.
//
// Four short pairs are read as one word: eight bytes, each below 0x80
// and none zero, are four (gap, length) pairs of one-byte varints with
// every gap and length at least 1, so only the end of the last can break
// a rule. Everything else takes the loop a pair at a time.
func pairs(b []byte, count int, out []Range) (width, elems, lo, hi int, ok bool) {
	pos, prevEnd, total := 0, uint64(0), uint64(0)
	for i := 0; i < count; {
		if count-i >= 4 && pos+8 <= len(b) {
			w := binary.LittleEndian.Uint64(b[pos:])
			if (w|(w-ones))&highs == 0 {
				gaps, lens := w&evens, w>>8&evens
				end := prevEnd + (gaps+lens)*lanes>>48
				if end > MaxIndex {
					return 0, 0, 0, 0, false
				}
				if i == 0 {
					lo = int(gaps & 0xff)
				}
				total += lens * lanes >> 48
				if out != nil {
					for k := 0; k < 4; k, gaps, lens = k+1, gaps>>16, lens>>16 {
						start := prevEnd + gaps&0xff
						prevEnd = start + lens&0xff
						out[i+k] = Range{int32(start), int32(prevEnd)}
					}
				}
				prevEnd = end
				pos, i = pos+8, i+4
				continue
			}
		}
		var gap, length uint64
		if pos+1 < len(b) && b[pos]|b[pos+1] < 0x80 {
			gap, length, pos = uint64(b[pos]), uint64(b[pos+1]), pos+2
		} else if gap, length, pos = slowPair(b, pos); pos == 0 {
			return 0, 0, 0, 0, false
		}
		// A sum that wrapped has a term above MaxIndex, refused just below.
		end := prevEnd + gap + length
		if length == 0 || (gap == 0 && i > 0) || gap > MaxIndex || length > MaxIndex || end > MaxIndex {
			return 0, 0, 0, 0, false
		}
		if i == 0 {
			lo = int(gap)
		}
		if out != nil {
			out[i] = Range{int32(prevEnd + gap), int32(end)}
		}
		total += length
		prevEnd = end
		i++
	}
	return pos, int(total), lo, int(prevEnd), true
}

// The masks of the four-pair word: a 1 in every byte, every byte's top
// bit, the low byte of every 16-bit lane, and the multiplier that sums
// the four lanes into the top one.
const (
	ones  = 0x0101010101010101
	highs = 0x8080808080808080
	evens = 0x00ff00ff00ff00ff
	lanes = 0x0001000100010001
)

// slowPair reads the (gap, length) pair at b[pos:] when it is not two
// bytes below 0x80, which the loops over pairs read themselves: a gap and
// a length, each a minimal varint. next is 0 if the pair is not there.
func slowPair(b []byte, pos int) (gap, length uint64, next int) {
	gap, kg := minimalUvarint(b[pos:])
	if kg == 0 {
		return 0, 0, 0
	}
	length, kl := minimalUvarint(b[pos+kg:])
	if kl == 0 {
		return 0, 0, 0
	}
	return gap, length, pos + kg + kl
}

// minimalUvarint is binary.Uvarint with every refusal reported as a width
// of 0: a short or overflowing encoding, and one padded with a zero last
// byte, which the encoder never writes.
func minimalUvarint(buf []byte) (v uint64, width int) {
	v, k := binary.Uvarint(buf)
	if k <= 0 || (k > 1 && buf[k-1] == 0) {
		return 0, 0
	}
	return v, k
}

// Lazy is a Set held one of two ways: in memory, as Hold makes it, at no
// cost; or as a Span, turned into ranges only when asked. A decoded crashk
// stage-2 request is mostly ruled on at its items' first ranges, so the
// rest of each item is never unpacked. The zero value is the empty set,
// held.
type Lazy struct {
	set  Set
	span *Span
}

// Hold returns s, held in memory.
func Hold(s Set) Lazy { return Lazy{set: s} }

// Held returns the set and true if it is held in memory, and false if it
// is held as its encoding.
func (l Lazy) Held() (Set, bool) { return l.set, l.span == nil }

// Set returns the set, decoding a span into freshly allocated ranges.
func (l Lazy) Set() Set {
	if l.span == nil {
		return l.set
	}
	s, _, _ := Decode(l.span.enc)
	return s
}

// Len returns the number of elements.
func (l Lazy) Len() int {
	if l.span == nil {
		return l.set.Len()
	}
	return l.span.len
}

// RangeCount returns the number of coalesced ranges.
func (l Lazy) RangeCount() int {
	if l.span == nil {
		return l.set.RangeCount()
	}
	return l.span.ranges
}

// SizeBits returns the accounted wire size, as Set.SizeBits does.
func (l Lazy) SizeBits(idxBits int) int { return 2 * idxBits * l.RangeCount() }

// Bounds returns the smallest half-open interval holding every element,
// as Set.Bounds does.
func (l Lazy) Bounds() (lo, hi int) {
	if l.span == nil {
		return l.set.Bounds()
	}
	return l.span.lo, l.span.hi
}

// Walk calls fn for every range [lo, hi) in increasing order until fn
// returns false, and reports whether it reached the end. A span is
// decoded a pair at a time, so a walk that stops early reads no further.
func (l Lazy) Walk(fn func(lo, hi int) bool) bool {
	if l.span == nil {
		for _, r := range l.set.ranges {
			if !fn(int(r.Lo), int(r.Hi)) {
				return false
			}
		}
		return true
	}
	b := l.span.enc
	_, pos := binary.Uvarint(b)
	prevEnd := uint64(0)
	for i := 0; i < l.span.ranges; i++ {
		var gap, length uint64
		if b[pos]|b[pos+1] < 0x80 {
			gap, length, pos = uint64(b[pos]), uint64(b[pos+1]), pos+2
		} else {
			gap, length, pos = slowPair(b, pos)
		}
		lo := prevEnd + gap
		prevEnd += gap + length
		if !fn(int(lo), int(prevEnd)) {
			return false
		}
	}
	return true
}

// AppendEncoding appends the set's encoding to dst: a span's own bytes,
// which are exactly what AppendEncoding would write for its set.
func (l Lazy) AppendEncoding(dst []byte) []byte {
	if l.span == nil {
		return AppendEncoding(dst, l.set)
	}
	return append(dst, l.span.enc...)
}

// String renders the set as Set.String does.
func (l Lazy) String() string { return l.Set().String() }
