package intset

import (
	"encoding/binary"
	"math/bits"
)

// The set encoding (docs/SPEC.md §2.1): the range count, then the ranges
// in increasing order. A range of one index is its gap, the distance from
// the previous range's end to its index, the first gap taken from −1; a
// longer range is a 0x00 byte, its length less two, then its gap. Every
// value is an unsigned varint. Ranges that touch are one range, so every
// gap is at least 1 and no gap's varint starts with 0x00, which is free
// to mark the longer ranges. From phase 2 on nearly every range crashk
// sends is one index with a gap below 0x80: one byte a range. Only
// non-negative sets are encoded.
//
// The decoders accept exactly what AppendEncoding can emit: gaps ≥ 1,
// minimal varints, every range end ≤ MaxIndex, and a count no larger than
// MaxRanges and than the bytes after it. So a decoded set re-encodes to
// the bytes it came from.

// MaxRanges bounds the range count of an encoded set against hostile
// input.
const MaxRanges = 1 << 20

// AppendEncoding appends the encoding of s, which must hold no negative
// index, to dst.
func AppendEncoding(dst []byte, s Set) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s.ranges)))
	prevEnd := int64(-1)
	for _, rg := range s.ranges {
		lo, hi := int64(rg.Lo), int64(rg.Hi)
		gap, length := uint64(lo-prevEnd), uint64(hi-lo)
		prevEnd = hi
		switch {
		case (length-1)<<7|gap < 0x80: // one index, a one-byte gap
			dst = append(dst, byte(gap))
		case (length-2)|gap < 0x80: // every value one byte
			dst = append(dst, 0, byte(length-2), byte(gap))
		default:
			if length > 1 {
				dst = binary.AppendUvarint(append(dst, 0), length-2)
			}
			dst = binary.AppendUvarint(dst, gap)
		}
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
	w, _, _, _, ok := scanRanges(b[k:], count, ranges)
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
	w, elems, lo, hi, ok := scanRanges(b[k:], count, nil)
	if !ok {
		return Span{}, 0, false
	}
	width = k + w
	return Span{enc: b[:width:width], ranges: count, len: elems, lo: lo, hi: hi}, width, true
}

// Lazy returns the set sp encodes, held as sp itself: sp must not be
// written afterwards.
func (sp *Span) Lazy() Lazy { return Lazy{span: sp} }

// header reads an encoding's range count. A range costs at least one
// byte, so a count above what follows is refused before it sizes
// anything.
func header(b []byte) (count, width int, ok bool) {
	n, k := minimalUvarint(b)
	if k == 0 || n > MaxRanges || n > uint64(len(b)-k) {
		return 0, 0, false
	}
	return int(n), k, true
}

// scanRanges validates count ranges at the front of b and returns the
// bytes they took, their element count, the start of the first range and
// the end of the last (both 0 for no range); when out is not nil, range i
// is written to out[i]. Ranges that pass are sorted, disjoint and not
// adjacent, so they are stored as they are, with no Builder check.
//
// One-index ranges are read a word at a time: every byte of the word
// below the first that is 0x00 or has its top bit set is a one-byte gap of
// at least 1. The range at the byte that stopped the word takes the
// loop's own path. Ends only grow, so the bound is checked once, on the
// last: every gap is at most MaxIndex and every length at most
// MaxIndex+2, so MaxRanges of them sum far below the top of a uint64.
func scanRanges(b []byte, count int, out []Range) (width, elems, lo, hi int, ok bool) {
	if count == 0 {
		return 0, 0, 0, 0, true
	}
	// prevEnd starts at −1, so the first range's index is its gap less
	// one; sums through it wrap back into range.
	pos, prevEnd, total := 0, ^uint64(0), uint64(0)
	for i := 0; i < count; i++ {
		for count-i >= 8 && pos+8 <= len(b) {
			w := binary.LittleEndian.Uint64(b[pos:])
			k := 8
			if stop := (w | (w - ones)) & highs; stop != 0 {
				k = bits.TrailingZeros64(stop) >> 3
				w &= 1<<(8*k) - 1
			}
			if i == 0 && k > 0 {
				lo = int(w&0xff - 1)
			}
			if out != nil {
				for j, next, v := i, prevEnd, w; j < i+k; j, v = j+1, v>>8 {
					next += v & 0xff
					out[j] = Range{int32(next), int32(next + 1)}
					next++
				}
			}
			prevEnd += (w&evens+w>>8&evens)*lanes>>48 + uint64(k)
			total += uint64(k)
			if pos, i = pos+k, i+k; k < 8 {
				break
			}
		}
		if i == count {
			break
		}
		if pos >= len(b) {
			return 0, 0, 0, 0, false
		}
		gap, length := uint64(b[pos]), uint64(1)
		switch {
		case gap-1 < 0x7f:
			pos++
		case gap == 0 && pos+2 < len(b) && b[pos+1] < 0x80 && b[pos+2]-1 < 0x7f:
			gap, length, pos = uint64(b[pos+2]), uint64(b[pos+1])+2, pos+3
		default:
			// gap−1 wraps a gap of 0 above the bound.
			if gap, length, pos = slowRange(b, pos); pos == 0 || gap-1 >= MaxIndex {
				return 0, 0, 0, 0, false
			}
		}
		if i == 0 {
			lo = int(gap - 1)
		}
		prevEnd += gap + length
		if out != nil {
			out[i] = Range{int32(prevEnd - length), int32(prevEnd)}
		}
		total += length
	}
	if prevEnd > MaxIndex {
		return 0, 0, 0, 0, false
	}
	return pos, int(total), lo, int(prevEnd), true
}

// The masks of the word of gaps: a 1 in every byte, every byte's top bit,
// the low byte of every 16-bit lane, and the multiplier that sums the
// four lanes into the top one.
const (
	ones  = 0x0101010101010101
	highs = 0x8080808080808080
	evens = 0x00ff00ff00ff00ff
	lanes = 0x0001000100010001
)

// slowRange reads the range at b[pos:] when it is neither one byte from
// 0x01 to 0x7f nor three with every value one byte, which the loops over
// ranges read themselves: an optional 0x00 and length less two, then a
// gap, each a minimal varint. A length above MaxIndex+2 is refused here,
// so that adding two cannot wrap it. next is 0 if the range is not there.
func slowRange(b []byte, pos int) (gap, length uint64, next int) {
	length = 1
	if pos < len(b) && b[pos] == 0 {
		v, k := minimalUvarint(b[pos+1:])
		if k == 0 || v > MaxIndex {
			return 0, 0, 0
		}
		length, pos = v+2, pos+1+k
	}
	gap, k := minimalUvarint(b[pos:])
	if k == 0 {
		return 0, 0, 0
	}
	return gap, length, pos + k
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
// decoded a range at a time, so a walk that stops early reads no further.
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
	prevEnd := ^uint64(0) // −1, as in scanRanges
	for i := 0; i < l.span.ranges; i++ {
		gap, length := uint64(b[pos]), uint64(1)
		switch {
		case gap-1 < 0x7f:
			pos++
		case gap == 0 && b[pos+1] < 0x80 && b[pos+2]-1 < 0x7f:
			gap, length, pos = uint64(b[pos+2]), uint64(b[pos+1])+2, pos+3
		default:
			gap, length, pos = slowRange(b, pos)
		}
		prevEnd += gap + length
		if !fn(int(prevEnd-length), int(prevEnd)) {
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
