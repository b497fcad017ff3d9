// Package bitarray provides compact, fixed-length bit arrays and the
// segment (contiguous sub-array) operations used throughout the Data
// Retrieval model: the source's input array X, per-peer output arrays,
// known-bit trackers, and the bit-string values exchanged in messages.
//
// All operations are word-parallel where possible; FirstDiff and Count are
// O(words), not O(bits). Indices are 0-based bit positions.
package bitarray

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"strings"
)

const wordBits = 64

// ErrLengthMismatch is returned by operations requiring equal-length arrays.
var ErrLengthMismatch = errors.New("bitarray: length mismatch")

// Array is a fixed-length array of bits. The zero value is an empty array;
// use New to create one with a given length.
type Array struct {
	n     int
	words []uint64
}

// New returns an all-zero Array of n bits. It panics if n is negative.
func New(n int) *Array {
	if n < 0 {
		panic(fmt.Sprintf("bitarray: negative length %d", n))
	}
	return &Array{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// Random returns an Array of n bits drawn uniformly from rng.
func Random(rng *rand.Rand, n int) *Array {
	a := New(n)
	for i := range a.words {
		a.words[i] = rng.Uint64()
	}
	a.clearTail()
	return a
}

// FromBools builds an Array from a slice of booleans.
func FromBools(vals []bool) *Array {
	a := New(len(vals))
	for i, v := range vals {
		if v {
			a.Set(i, true)
		}
	}
	return a
}

// Len returns the number of bits in the array.
func (a *Array) Len() int { return a.n }

// Get returns bit i. It panics if i is out of range.
func (a *Array) Get(i int) bool {
	a.check(i)
	return a.words[uint(i)/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Bit returns bit i as 0 or 1. It panics if i is out of range.
func (a *Array) Bit(i int) byte {
	if a.Get(i) {
		return 1
	}
	return 0
}

// Set assigns bit i. It panics if i is out of range.
func (a *Array) Set(i int, v bool) {
	a.check(i)
	if v {
		a.words[uint(i)/wordBits] |= 1 << (uint(i) % wordBits)
	} else {
		a.words[uint(i)/wordBits] &^= 1 << (uint(i) % wordBits)
	}
}

// Fill sets every bit to v.
func (a *Array) Fill(v bool) {
	var w uint64
	if v {
		w = ^uint64(0)
	}
	for i := range a.words {
		a.words[i] = w
	}
	a.clearTail()
}

// Clone returns a deep copy of the array.
func (a *Array) Clone() *Array {
	c := &Array{n: a.n, words: make([]uint64, len(a.words))}
	copy(c.words, a.words)
	return c
}

// Equal reports whether a and b have the same length and contents.
func (a *Array) Equal(b *Array) bool {
	if a.n != b.n {
		return false
	}
	for i, w := range a.words {
		if w != b.words[i] {
			return false
		}
	}
	return true
}

// Hash returns a 64-bit FNV-1a fingerprint of the array (length and
// contents). Equal arrays hash equally; distinct arrays collide with
// probability ~2^-64. It is not cryptographic — use it for dedup and
// equivocation fingerprints, not integrity against adaptive adversaries.
func (a *Array) Hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(uint64(a.n))
	for _, w := range a.words {
		mix(w)
	}
	return h
}

// Count returns the number of set bits.
func (a *Array) Count() int {
	c := 0
	for _, w := range a.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// FirstDiff returns the smallest index at which a and b differ, or -1 if
// they are equal. It returns ErrLengthMismatch if the lengths differ.
func (a *Array) FirstDiff(b *Array) (int, error) {
	if a.n != b.n {
		return 0, ErrLengthMismatch
	}
	for i, w := range a.words {
		if x := w ^ b.words[i]; x != 0 {
			return i*wordBits + bits.TrailingZeros64(x), nil
		}
	}
	return -1, nil
}

// Slice returns a new Array holding bits [start, start+length).
// It panics if the range is out of bounds.
func (a *Array) Slice(start, length int) *Array {
	if start < 0 || length < 0 || start+length > a.n {
		panic(fmt.Sprintf("bitarray: slice [%d,%d) out of range of %d bits", start, start+length, a.n))
	}
	s := New(length)
	s.copyBits(a, start, 0, length)
	return s
}

// CopyFrom copies length bits from src starting at srcStart into a starting
// at dstStart. It panics if either range is out of bounds.
func (a *Array) CopyFrom(src *Array, srcStart, dstStart, length int) {
	if srcStart < 0 || length < 0 || srcStart+length > src.n {
		panic(fmt.Sprintf("bitarray: source range [%d,%d) out of range of %d bits", srcStart, srcStart+length, src.n))
	}
	if dstStart < 0 || dstStart+length > a.n {
		panic(fmt.Sprintf("bitarray: destination range [%d,%d) out of range of %d bits", dstStart, dstStart+length, a.n))
	}
	a.copyBits(src, srcStart, dstStart, length)
}

// copyBits copies without bounds checks (callers validate). All paths are
// word-level: the unaligned case moves 64 bits per step through
// extract64/inject64 rather than bit-by-bit.
func (a *Array) copyBits(src *Array, srcStart, dstStart, length int) {
	// Word-aligned fast path.
	if srcStart%wordBits == 0 && dstStart%wordBits == 0 {
		full := length / wordBits
		copy(a.words[dstStart/wordBits:dstStart/wordBits+full], src.words[srcStart/wordBits:srcStart/wordBits+full])
		if rem := length % wordBits; rem > 0 {
			a.inject64(dstStart+full*wordBits, rem, src.extract64(srcStart+full*wordBits, rem))
		}
		return
	}
	for length >= wordBits {
		a.inject64(dstStart, wordBits, src.extract64(srcStart, wordBits))
		srcStart += wordBits
		dstStart += wordBits
		length -= wordBits
	}
	if length > 0 {
		a.inject64(dstStart, length, src.extract64(srcStart, length))
	}
}

// extract64 returns bits [pos, pos+n) as the low n bits of a word, n ≤ 64.
// The caller guarantees pos+n ≤ Len.
func (a *Array) extract64(pos, n int) uint64 {
	wi, off := pos/wordBits, uint(pos)%wordBits
	w := a.words[wi] >> off
	if off != 0 && wi+1 < len(a.words) {
		w |= a.words[wi+1] << (wordBits - off)
	}
	if n < wordBits {
		w &= 1<<uint(n) - 1
	}
	return w
}

// inject64 writes the low n bits of v into [pos, pos+n), n ≤ 64. The
// caller guarantees pos+n ≤ Len.
func (a *Array) inject64(pos, n int, v uint64) {
	wi, off := pos/wordBits, uint(pos)%wordBits
	mask := ^uint64(0)
	if n < wordBits {
		mask = 1<<uint(n) - 1
		v &= mask
	}
	a.words[wi] = a.words[wi]&^(mask<<off) | v<<off
	if int(off)+n > wordBits {
		hi := wordBits - off
		a.words[wi+1] = a.words[wi+1]&^(mask>>hi) | v>>hi
	}
}

// EncodedLen returns the length of the Bytes serialization.
func (a *Array) EncodedLen() int { return 8 + len(a.words)*8 }

// Bytes serializes the array as length-prefixed little-endian bytes.
func (a *Array) Bytes() []byte {
	return a.AppendTo(make([]byte, 0, a.EncodedLen()))
}

// AppendTo appends the Bytes serialization to dst and returns the extended
// slice — the allocation-free encode path (package wire reuses one buffer
// per connection).
func (a *Array) AppendTo(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(a.n))
	for _, w := range a.words {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

// FromBytes deserializes an Array produced by Bytes.
func FromBytes(data []byte) (*Array, error) {
	if len(data) < 8 {
		return nil, errors.New("bitarray: truncated header")
	}
	n64 := binary.LittleEndian.Uint64(data)
	if n64 > uint64(len(data)-8)*8 {
		// Checked before ⌈n/64⌉ is taken: a count near 2⁶³ would wrap it.
		return nil, fmt.Errorf("bitarray: %d bits announced in %d bytes", n64, len(data)-8)
	}
	n := int(n64)
	nw := (n + wordBits - 1) / wordBits
	if len(data) < 8+nw*8 {
		return nil, fmt.Errorf("bitarray: need %d bytes, have %d", 8+nw*8, len(data))
	}
	a := New(n)
	for i := 0; i < nw; i++ {
		a.words[i] = binary.LittleEndian.Uint64(data[8+i*8:])
	}
	a.clearTail()
	return a, nil
}

// String renders the bits as a 0/1 string, most significant index last
// (i.e., index order). Long arrays are elided in the middle.
func (a *Array) String() string {
	const maxShown = 64
	var sb strings.Builder
	show := a.n
	if show > maxShown {
		show = maxShown
	}
	for i := 0; i < show; i++ {
		sb.WriteByte('0' + a.Bit(i))
	}
	if a.n > maxShown {
		fmt.Fprintf(&sb, "…(+%d bits)", a.n-maxShown)
	}
	return sb.String()
}

// Arena carves many small Arrays out of one shared backing slab. Message
// builders that produce a batch of value arrays (one per answered item)
// use it to pay two allocations per batch instead of two per item. Arrays
// returned by an arena are independent values sharing only cache locality;
// they must be fully built before the batch escapes, like any message
// payload.
type Arena struct {
	words []uint64
	arrs  []Array
}

// NewArena returns an arena sized for nArrays arrays totalling totalBits
// bits. Requests beyond the reserved capacity fall back to individual
// allocation, so sizing is a performance hint, not a correctness limit.
func NewArena(nArrays, totalBits int) *Arena {
	return &Arena{
		// Each array rounds up to a word boundary, hence the +nArrays.
		words: make([]uint64, 0, totalBits/wordBits+nArrays),
		arrs:  make([]Array, 0, nArrays),
	}
}

// New returns an all-zero n-bit Array backed by the arena's slab.
func (ar *Arena) New(n int) *Array {
	if n < 0 {
		panic(fmt.Sprintf("bitarray: negative length %d", n))
	}
	nw := (n + wordBits - 1) / wordBits
	if len(ar.words)+nw > cap(ar.words) || len(ar.arrs) == cap(ar.arrs) {
		// Growing would reallocate the slab and break the aliasing of
		// earlier arrays; overflow requests get their own storage.
		return New(n)
	}
	w := ar.words[len(ar.words) : len(ar.words)+nw]
	ar.words = ar.words[:len(ar.words)+nw]
	ar.arrs = append(ar.arrs, Array{n: n, words: w})
	return &ar.arrs[len(ar.arrs)-1]
}

// check panics if i is not a bit of a. It panics with a small value whose
// message is formatted only when printed, so that check, and Get, Set and
// Tracker.Known with it, inline.
func (a *Array) check(i int) {
	if uint(i) >= uint(a.n) {
		panic(indexError{i, a.n})
	}
}

// indexError is the value a single-bit access out of range panics with.
type indexError struct{ index, len int }

func (e indexError) Error() string {
	return fmt.Sprintf("bitarray: index %d out of range of %d bits", e.index, e.len)
}

// clearTail zeroes bits beyond Len in the final word so Equal/Count are
// well defined.
func (a *Array) clearTail() {
	if a.n%wordBits != 0 && len(a.words) > 0 {
		a.words[len(a.words)-1] &= (1 << (uint(a.n) % wordBits)) - 1
	}
}

// Not complements every bit.
func (a *Array) Not() {
	for i := range a.words {
		a.words[i] = ^a.words[i]
	}
	a.clearTail()
}

// Gather returns the array whose bit k is bit idx[k] of a. It panics if an
// index is out of range.
func (a *Array) Gather(idx []int) *Array {
	out, ok := a.GatherFrom(idx, 0)
	if !ok {
		panic(fmt.Sprintf("bitarray: gather index out of range of %d bits", a.n))
	}
	return out
}

// GatherFrom returns the array whose bit k is bit idx[k]-base of a: a holds
// the bits of a span that starts at absolute index base. ok is false, and
// the array nil, if an index falls outside the span — the form for spans
// that arrived from outside the program. An ascending run of a word or
// more is one block copy; everything else is assembled a word at a time in
// a register.
func (a *Array) GatherFrom(idx []int, base int) (out *Array, ok bool) {
	out = New(len(idx))
	for k := 0; k < len(idx); {
		if r := runLen(idx[k:]); r >= wordBits {
			if r < len(idx)-k {
				r &^= wordBits - 1 // keep k on an output word boundary
			}
			i := idx[k] - base
			if i < 0 || i > a.n-r {
				return nil, false
			}
			out.copyBits(a, i, k, r)
			k += r
			continue
		}
		end := min(k+wordBits, len(idx))
		var w uint64
		for j, i := range idx[k:end] {
			i -= base
			if i < 0 || i >= a.n {
				return nil, false
			}
			w |= a.words[i/wordBits] >> (uint(i) % wordBits) & 1 << uint(j)
		}
		out.words[k/wordBits] = w
		k = end
	}
	return out, true
}

// runLen returns the length of the run idx[0], idx[0]+1, … that idx starts
// with when that is a word or more, and otherwise some smaller value —
// after one comparison, unless the 64th index happens to fit a run. It is
// how the indexed operations find the stretches worth a block copy without
// slowing lists that have none.
func runLen(idx []int) int {
	if len(idx) < wordBits || idx[wordBits-1] != idx[0]+wordBits-1 {
		return 0
	}
	r := 1
	for r < len(idx) && idx[r] == idx[r-1]+1 {
		r++
	}
	return r
}

// Bits64 returns bits [pos, pos+n) as the low n bits of a word, n ≤ 64,
// bit pos lowest. It panics if the range is out of bounds.
func (a *Array) Bits64(pos, n int) uint64 {
	if pos < 0 || n < 0 || n > wordBits || pos+n > a.n {
		panic(fmt.Sprintf("bitarray: bits [%d,%d) out of range of %d bits, 64 at a time", pos, pos+n, a.n))
	}
	if n == 0 {
		return 0
	}
	return a.extract64(pos, n)
}
