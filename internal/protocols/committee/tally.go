package committee

import (
	"math/bits"

	"repro/internal/bitarray"
	"repro/internal/sim"
)

// tally applies the acceptance rule — learn bit i once t+1 of its
// committee's members reported the same value — to 64 indices at a time.
//
// The vote counts are bit-sliced: for each 64-index word and each of the
// two values there are `planes` words, plane k holding bit k of all 64
// counters, so one ripple of XOR/AND adds a vote to every index named in
// a mask. Every counter starts at 2^planes − accept instead of zero, which
// makes the carry out of the top plane exactly "this index just received
// its accept-th identical vote": the threshold costs no comparison, and
// only those carry bits, once per index, reach the tracker. 2^planes > n
// leaves room for the n − accept votes that may still follow a carry, so
// no counter carries twice, whatever n is.
type tally struct {
	l, n, s int
	// runs selects the word-copy path for stretches of consecutive
	// indices. It is a property of the schedule, not of a report: an
	// honest member's list runs on for about s/(n−s) indices between the
	// committees it sits out, and copying pays only when that is long.
	runs   bool
	planes int
	cnt    []uint64 // [word][value][plane]
	track  *bitarray.Tracker
}

// minRunRatio is the s/(n−s) from which honest lists count as long runs:
// BenchmarkCount has the two paths level near 3 and the run path ahead by
// half at 8.
const minRunRatio = 8

func newTally(l, n, s, accept int, track *bitarray.Tracker) *tally {
	t := &tally{l: l, n: n, s: s, runs: s >= minRunRatio*(n-s), planes: bits.Len(uint(n)), track: track}
	t.cnt = make([]uint64, (l+63)/64*2*t.planes)
	bias := uint64(1)<<t.planes - uint64(accept)
	for i := range t.cnt {
		if bias>>(i%t.planes)&1 != 0 {
			t.cnt[i] = ^uint64(0)
		}
	}
	return t
}

// mod returns a mod n in [0, n).
func mod(a, n int) int {
	if a %= n; a < 0 {
		a += n
	}
	return a
}

// ballot is a report read as words: for every destination word the report
// votes in, ascending, the indices voted on (any) and those voted 1 (one).
// It is a function of the report's Indices and Bits and of its key and of
// nothing a receiver holds, so it is computed at a report's first delivery
// and read at the others (Report.ballot).
type ballot struct {
	key   ballotKey
	words []wordVotes
}

// ballotKey is everything outside a report that its ballot depends on: who
// sent it, and the array and schedule it is counted under.
type ballotKey struct {
	from    sim.PeerID
	l, n, s int
}

type wordVotes struct {
	w        int
	any, one uint64
}

// emit appends one word of votes; a word nobody voted in is not listed.
func (b *ballot) emit(w int, one, any uint64) {
	if any != 0 {
		b.words = append(b.words, wordVotes{w, any, one})
	}
}

// count casts the votes of one report: it looks up or builds the report's
// ballot, then adds its words to the counters — the first delivery of a
// report exactly as every later one. The key is compared on every use: a
// Byzantine peer may relay another's Report under its own id, and one
// Report may be counted under more than one configuration.
func (t *tally) count(from sim.PeerID, rep *Report) {
	key := ballotKey{from, t.l, t.n, t.s}
	b := rep.ballot.Load()
	if b == nil || b.key != key {
		b = t.scatter(key, rep)
		rep.ballot.Store(b)
	}
	for _, v := range b.words {
		t.cast(v.w, v.one, v.any)
	}
}

// scatter builds the ballot of rep under key, which names this tally's
// array and schedule. It keeps every rule of
// the per-index loop it replaces: indices at or below an earlier one, or
// outside the array, are skipped (a member cannot vote twice on one bit
// inside a report), and only members of an index's committee vote on it.
// A report votes in at most one word per index and in no word outside the
// array, which bounds the list whatever the report holds.
func (t *tally) scatter(key ballotKey, rep *Report) *ballot {
	b := &ballot{key: key}
	b.words = make([]wordVotes, 0, min((t.l+63)/64, len(rep.Indices)))
	if t.runs {
		t.countRuns(b, rep)
	} else {
		t.countEach(b, rep)
	}
	return b
}

// follow moves d, the sender's offset on a committee (a member iff d < s),
// on by gap indices: it falls by s per index, mod n. Between two indices
// of an honest list lie fewer than n+s offsets, so that much is wrapped by
// additions; only a longer jump takes a division.
func follow(d, gap, s, n int) int {
	step := gap * s
	if step > 2*n {
		step %= n
	}
	if step > n {
		step -= n
	}
	if d -= step; d < 0 {
		d += n
	}
	return d
}

// countEach scatters a report index by index, assembling each destination
// word in registers: any marks the indices voted on, one those voted 1.
// Accepted indices only increase, so each word is emitted once.
func (t *tally) countEach(b *ballot, rep *Report) {
	idx, l, n, s := rep.Indices, t.l, t.n, t.s
	prev, d := -1, mod(int(b.key.from)+s, n) // d is the offset at index prev
	var w int
	var one, any, src uint64
	for k, i := range idx {
		if k%64 == 0 {
			src = rep.Bits.Bits64(k, min(64, len(idx)-k))
		}
		v := src & 1
		src >>= 1
		if i <= prev || i >= l {
			continue
		}
		d, prev = follow(d, i-prev, s, n), i
		if d >= s {
			continue
		}
		if i>>6 != w {
			b.emit(w, one, any)
			w, one, any = i>>6, 0, 0
		}
		bit := uint64(1) << (uint(i) % 64)
		any |= bit
		one |= bit & -v
	}
	b.emit(w, one, any)
}

// countRuns is countEach for schedules whose honest lists are long runs
// of consecutive indices: as far as the list, the array and the sender's
// membership run on together, values are copied a word at a time. A list
// that does not run on costs more here than in countEach, never a
// different vote.
func (t *tally) countRuns(b *ballot, rep *Report) {
	idx, l, n, s := rep.Indices, t.l, t.n, t.s
	prev, d := -1, mod(int(b.key.from)+s, n)
	var w int
	var one, any uint64
	for k := 0; k < len(idx); k++ {
		i := idx[k]
		if i <= prev || i >= l {
			continue
		}
		d, prev = follow(d, i-prev, s, n), i
		if d >= s {
			continue
		}
		// How far do the list, the array and the sender's membership (d
		// rises by n−s per index and must stay below s) run on together?
		r := 1
		for lim := min(len(idx)-k, l-i); r < lim && idx[k+r] == i+r && d+n-s < s; r++ {
			d += n - s
		}
		for pos, q := i, k; pos < i+r; {
			take := min(64-pos%64, i+r-pos) // stay inside one destination word
			if pos>>6 != w {
				b.emit(w, one, any)
				w, one, any = pos>>6, 0, 0
			}
			any |= ^uint64(0) >> (64 - uint(take)) << (uint(pos) % 64)
			one |= rep.Bits.Bits64(q, take) << (uint(pos) % 64)
			pos, q = pos+take, q+take
		}
		k, prev = k+r-1, i+r-1
	}
	b.emit(w, one, any)
}

// cast adds one word of votes to the counters and learns what the carries
// name.
func (t *tally) cast(w int, one, any uint64) {
	t.learn(w, t.add(2*w, any&^one), false)
	t.learn(w, t.add(2*w+1, one), true)
}

// add increments the counters of slot c named in m and returns those that
// carried out of the top plane.
func (t *tally) add(c int, m uint64) uint64 {
	p := t.cnt[c*t.planes:][:t.planes]
	for k := 0; k < len(p) && m != 0; k++ {
		p[k], m = p[k]^m, p[k]&m
	}
	return m
}

func (t *tally) learn(w int, m uint64, v bool) {
	for ; m != 0; m &= m - 1 {
		t.track.Learn(w*64+bits.TrailingZeros64(m), v)
	}
}
