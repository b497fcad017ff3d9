package bitarray

import (
	"fmt"
	"math/bits"
)

// Tracker maintains a peer's partial view of the input array: the bit
// values learned so far plus a "known" mask. Protocols use it to decide
// which bits still need querying and to assemble the final output.
type Tracker struct {
	vals    *Array
	known   *Array
	unknown int
}

// NewTracker returns a Tracker over n bits with every bit unknown.
func NewTracker(n int) *Tracker {
	return &Tracker{vals: New(n), known: New(n), unknown: n}
}

// Len returns the tracked array length in bits.
func (t *Tracker) Len() int { return t.vals.n }

// Known reports whether bit i has been learned.
func (t *Tracker) Known(i int) bool { return t.known.Get(i) }

// Get returns the learned value of bit i; ok is false if i is unknown.
func (t *Tracker) Get(i int) (v, ok bool) {
	if !t.known.Get(i) {
		return false, false
	}
	return t.vals.Get(i), true
}

// Learn records bit i as value v. The first learned value wins: learning
// an already-known bit again is a no-op, and the return value reports
// whether the new value conflicted with the stored one. Honest executions
// never conflict; conflicts arise only when Byzantine-forged strings were
// (low-probability) accepted, in which case the protocol's output is
// wrong rather than the process crashing — matching the paper's w.h.p.
// correctness guarantees.
func (t *Tracker) Learn(i int, v bool) (conflict bool) {
	if t.known.Get(i) {
		return t.vals.Get(i) != v
	}
	t.known.Set(i, true)
	t.vals.Set(i, v)
	t.unknown--
	return false
}

// LearnFromSource records bit i as value v, overwriting any previously
// learned value: the source is trusted, so its answer always wins. The
// return value reports whether an overwrite happened.
func (t *Tracker) LearnFromSource(i int, v bool) (overwrote bool) {
	if t.known.Get(i) {
		if t.vals.Get(i) != v {
			t.vals.Set(i, v)
			return true
		}
		return false
	}
	t.known.Set(i, true)
	t.vals.Set(i, v)
	t.unknown--
	return false
}

// LearnIndexedFromSource records bit idx[k] as bit k of vals for every k,
// in order, with LearnFromSource's semantics: the source's answer
// overwrites, so of a repeated index the last value stands. An ascending
// run of a word or more is written a destination word at a time, the newly
// known bits counted by popcount. It panics if an index is out of range or
// vals is shorter than idx.
func (t *Tracker) LearnIndexedFromSource(idx []int, vals *Array) {
	if vals.n < len(idx) {
		panic(fmt.Sprintf("bitarray: %d values for %d learned indices", vals.n, len(idx)))
	}
	for k := 0; k < len(idx); {
		if r := runLen(idx[k:]); r >= wordBits {
			lo := idx[k]
			if lo < 0 || lo > t.vals.n-r {
				panic(fmt.Sprintf("bitarray: learn range [%d,%d+%d) out of range of %d bits", lo, lo, r, t.vals.n))
			}
			for pos, hi := lo, lo+r; pos < hi; {
				mask, n := wordMask(pos, hi)
				wi := pos / wordBits
				sv := vals.extract64(k+pos-lo, n) << (uint(pos) % wordBits)
				t.vals.words[wi] = t.vals.words[wi]&^mask | sv
				t.unknown -= bits.OnesCount64(mask &^ t.known.words[wi])
				t.known.words[wi] |= mask
				pos += n
			}
			k += r
			continue
		}
		for end := min(k+wordBits, len(idx)); k < end; k++ {
			t.LearnFromSource(idx[k], vals.Get(k))
		}
	}
}

// LearnSegment records bits [start, start+seg.Len()) from a segment value.
func (t *Tracker) LearnSegment(start int, seg *Array) {
	t.LearnRange(start, start+seg.Len(), seg, 0)
}

// LearnRange records bits [lo, hi) from src starting at bit srcOff, with
// the same first-learned-wins semantics as per-bit Learn. It works a word
// at a time: for each destination word, the incoming bits are merged into
// vals only at positions not yet known, and the known mask and unknown
// counter are updated with popcounts. This is the protocols' bulk-learning
// hot path (stage answers, full-array broadcasts).
func (t *Tracker) LearnRange(lo, hi int, src *Array, srcOff int) (conflict bool) {
	if lo < 0 || hi > t.vals.n || lo > hi {
		panic(fmt.Sprintf("bitarray: learn range [%d,%d) out of range of %d bits", lo, hi, t.vals.n))
	}
	if srcOff < 0 || srcOff+(hi-lo) > src.n {
		panic(fmt.Sprintf("bitarray: learn source [%d,%d) out of range of %d bits", srcOff, srcOff+(hi-lo), src.n))
	}
	pos, off := lo, srcOff
	for pos < hi {
		n := wordBits - pos%wordBits // stay within one destination word
		if n > hi-pos {
			n = hi - pos
		}
		sv := src.extract64(off, n)
		wi, sh := pos/wordBits, uint(pos)%wordBits
		mask := ^uint64(0)
		if n < wordBits {
			mask = 1<<uint(n) - 1
		}
		mask <<= sh
		known := t.known.words[wi]
		if (t.vals.words[wi]^(sv<<sh))&mask&known != 0 {
			conflict = true
		}
		newly := mask &^ known
		// Unknown positions hold zero in vals (Learn's invariant), so a
		// plain OR records the new values.
		t.vals.words[wi] |= sv << sh & newly
		t.known.words[wi] = known | newly
		t.unknown -= bits.OnesCount64(newly)
		pos += n
		off += n
	}
	return conflict
}

// KnownRange reports whether every bit in [lo, hi) is known, checking
// whole words of the known mask at a time.
func (t *Tracker) KnownRange(lo, hi int) bool {
	if lo < 0 || hi > t.vals.n || lo > hi {
		panic(fmt.Sprintf("bitarray: known range [%d,%d) out of range of %d bits", lo, hi, t.vals.n))
	}
	for pos := lo; pos < hi; {
		mask, n := wordMask(pos, hi)
		if t.known.words[pos/wordBits]&mask != mask {
			return false
		}
		pos += n
	}
	return true
}

// wordMask returns the mask selecting the bits of [pos, hi) that lie in
// pos's word, and how many bits that is — the step of every word-at-a-time
// scan of the known mask.
func wordMask(pos, hi int) (mask uint64, n int) {
	n = wordBits - pos%wordBits
	if n > hi-pos {
		n = hi - pos
	}
	mask = ^uint64(0)
	if n < wordBits {
		mask = 1<<uint(n) - 1
	}
	return mask << (uint(pos) % wordBits), n
}

// AnyKnown reports whether at least one bit in [lo, hi) is known, checking
// whole words of the known mask at a time. It is KnownRange's dual: a set
// computed over unknown bits is still exact while AnyKnown is false on
// each of its ranges.
func (t *Tracker) AnyKnown(lo, hi int) bool {
	if lo < 0 || hi > t.vals.n || lo > hi {
		panic(fmt.Sprintf("bitarray: any-known range [%d,%d) out of range of %d bits", lo, hi, t.vals.n))
	}
	for pos := lo; pos < hi; {
		mask, n := wordMask(pos, hi)
		if t.known.words[pos/wordBits]&mask != 0 {
			return true
		}
		pos += n
	}
	return false
}

// CopyRange copies learned values [lo, hi) into dst at dstOff. The caller
// must have established the range is known (KnownRange); unknown positions
// would copy as zero.
func (t *Tracker) CopyRange(dst *Array, dstOff, lo, hi int) {
	dst.CopyFrom(t.vals, lo, dstOff, hi-lo)
}

// UnknownCount returns the number of bits not yet learned.
func (t *Tracker) UnknownCount() int { return t.unknown }

// Complete reports whether every bit is known.
func (t *Tracker) Complete() bool { return t.unknown == 0 }

// UnknownIn returns the indices in [start, start+length) not yet known,
// appended to dst. Fully-known words are skipped with one mask compare.
func (t *Tracker) UnknownIn(dst []int, start, length int) []int {
	for pos, end := start, start+length; pos < end; {
		mask, n := wordMask(pos, end)
		wi := pos / wordBits
		for inv := ^t.known.words[wi] & mask; inv != 0; inv &= inv - 1 {
			dst = append(dst, wi*wordBits+bits.TrailingZeros64(inv))
		}
		pos += n
	}
	return dst
}

// UnknownRuns calls fn(runLo, runHi) for every maximal run of unknown bits
// within [lo, hi), in increasing order. The known mask is read a word at a
// time, so a run costs one call however long it is and a fully known word
// one compare; a run that crosses a word boundary is still one call.
func (t *Tracker) UnknownRuns(lo, hi int, fn func(runLo, runHi int)) {
	if lo < 0 || hi > t.vals.n || lo > hi {
		panic(fmt.Sprintf("bitarray: unknown-runs range [%d,%d) out of range of %d bits", lo, hi, t.vals.n))
	}
	start := -1 // the open run's first bit; -1 while none is open
	for pos := lo; pos < hi; {
		mask, n := wordMask(pos, hi)
		wi, sh := pos/wordBits, pos%wordBits
		inv := ^t.known.words[wi] & mask
		if start >= 0 && inv&1 == 0 {
			// A run is carried only into a word-aligned pos (sh = 0), and
			// ends there unless the word's first bit is unknown.
			fn(start, pos)
			start = -1
		}
		for inv != 0 {
			s := bits.TrailingZeros64(inv)
			e := s + bits.TrailingZeros64(^(inv >> uint(s))) // the run's end in this word
			if start < 0 {
				start = wi*wordBits + s
			}
			if e == sh+n {
				break // it reaches the end of the word's part: the next word may go on with it
			}
			fn(start, wi*wordBits+e)
			start = -1
			inv &^= 1<<uint(e) - 1
		}
		pos += n
	}
	if start >= 0 {
		fn(start, hi)
	}
}

// UnknownWords returns how many words UnknownWord numbers: word wi covers
// bits [64·wi, 64·wi+64).
func (t *Tracker) UnknownWords() int { return len(t.known.words) }

// UnknownWord returns word wi of the unknown mask: bit b is set exactly
// when bit 64·wi+b lies below Len and is not yet known. A caller walks the
// unknown bits a word at a time with it, clearing the lowest set bit, and
// pays no call per bit. It panics if wi is not below UnknownWords.
func (t *Tracker) UnknownWord(wi int) uint64 {
	inv := ^t.known.words[wi]
	if wi == len(t.known.words)-1 && t.vals.n%wordBits != 0 {
		inv &= 1<<(uint(t.vals.n)%wordBits) - 1
	}
	return inv
}

// UnknownAll returns every unknown index, in increasing order.
func (t *Tracker) UnknownAll() []int {
	dst := make([]int, 0, t.unknown)
	for wi := range t.known.words {
		for inv := t.UnknownWord(wi); inv != 0; inv &= inv - 1 {
			dst = append(dst, wi*wordBits+bits.TrailingZeros64(inv))
		}
	}
	return dst
}

// KnownSegment extracts bits [start, start+length) as an Array; ok is
// false if any bit in the range is unknown.
func (t *Tracker) KnownSegment(start, length int) (*Array, bool) {
	if !t.KnownRange(start, start+length) {
		return nil, false
	}
	return t.vals.Slice(start, length), true
}

// Snapshot returns a copy of the current values array. Unknown positions
// are zero. If the tracker is complete this is the peer's output.
func (t *Tracker) Snapshot() *Array { return t.vals.Clone() }

// Output returns the values array if complete, or an error naming the
// number of still-unknown bits.
func (t *Tracker) Output() (*Array, error) {
	if !t.Complete() {
		return nil, fmt.Errorf("bitarray: output requested with %d unknown bits", t.unknown)
	}
	return t.vals.Clone(), nil
}
