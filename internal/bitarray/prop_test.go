package bitarray

import (
	"math/rand"
	"testing"
)

// Property tests: the word-level implementations (extract64/inject64,
// copyBits, LearnRange, KnownRange, UnknownIn) are checked against a naive
// bit-at-a-time model over randomized operation sequences. Lengths are
// chosen to hit word boundaries — the cases where masked merges and
// cross-word spills live.

var propLens = []int{1, 3, 63, 64, 65, 127, 128, 130, 200, 1000}

// modelOf mirrors an Array as a []bool.
func modelOf(a *Array) []bool {
	m := make([]bool, a.Len())
	for i := range m {
		m[i] = a.Get(i)
	}
	return m
}

func checkAgainst(t *testing.T, a *Array, model []bool, ctx string) {
	t.Helper()
	if a.Len() != len(model) {
		t.Fatalf("%s: length %d, model %d", ctx, a.Len(), len(model))
	}
	count := 0
	for i, v := range model {
		if a.Get(i) != v {
			t.Fatalf("%s: bit %d is %v, model %v", ctx, i, a.Get(i), v)
		}
		if v {
			count++
		}
	}
	if a.Count() != count {
		t.Fatalf("%s: Count %d, model %d", ctx, a.Count(), count)
	}
}

func TestArrayVsModel(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, n := range propLens {
		a := New(n)
		model := make([]bool, n)
		for op := 0; op < 300; op++ {
			switch rng.Intn(9) {
			case 0: // Set
				i, v := rng.Intn(n), rng.Intn(2) == 0
				a.Set(i, v)
				model[i] = v
			case 1: // CopyFrom a random array at random (unaligned) offsets
				src := Random(rng, rng.Intn(2*n)+1)
				length := rng.Intn(min(src.Len(), n) + 1)
				srcStart := rng.Intn(src.Len() - length + 1)
				dstStart := rng.Intn(n - length + 1)
				a.CopyFrom(src, srcStart, dstStart, length)
				for i := 0; i < length; i++ {
					model[dstStart+i] = src.Get(srcStart + i)
				}
			case 2: // Slice must match the model's sub-slice
				length := rng.Intn(n + 1)
				start := rng.Intn(n - length + 1)
				s := a.Slice(start, length)
				checkAgainst(t, s, model[start:start+length], "slice")
			case 3: // encode round trip
				b, err := FromBytes(a.Bytes())
				if err != nil {
					t.Fatal(err)
				}
				if !b.Equal(a) {
					t.Fatalf("n=%d: Bytes round trip differs", n)
				}
			case 4: // FirstDiff against a mutated clone
				c := a.Clone()
				want := -1
				if n > 0 && rng.Intn(2) == 0 {
					i := rng.Intn(n)
					c.Set(i, !c.Get(i))
					want = i
				}
				got, err := a.FirstDiff(c)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("n=%d: FirstDiff %d, want %d", n, got, want)
				}
			case 5: // Fill
				v := rng.Intn(2) == 0
				a.Fill(v)
				for i := range model {
					model[i] = v
				}
			case 6: // Not
				a.Not()
				for i := range model {
					model[i] = !model[i]
				}
			case 7: // Gather at random, repeated and unsorted indices
				idx := make([]int, rng.Intn(2*n+2))
				want := make([]bool, len(idx))
				for k := range idx {
					idx[k] = rng.Intn(n)
					want[k] = model[idx[k]]
				}
				checkAgainst(t, a.Gather(idx), want, "gather")
			case 8: // Bits64 at a random (unaligned) position
				length := rng.Intn(min(n, 64) + 1)
				pos := rng.Intn(n - length + 1)
				got := a.Bits64(pos, length)
				for i := 0; i < 64; i++ {
					if want := i < length && model[pos+i]; got>>uint(i)&1 == 1 != want {
						t.Fatalf("n=%d: Bits64(%d,%d) bit %d is %v, model %v", n, pos, length, i, !want, want)
					}
				}
			}
			checkAgainst(t, a, model, "array")
		}
	}
}

func TestTrackerVsModel(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for _, n := range propLens {
		tr := NewTracker(n)
		known := make([]bool, n)
		vals := make([]bool, n)
		learnModel := func(i int, v bool) (conflict bool) {
			if known[i] {
				return vals[i] != v
			}
			known[i], vals[i] = true, v
			return false
		}
		for op := 0; op < 200; op++ {
			switch rng.Intn(5) {
			case 0: // Learn one bit
				i, v := rng.Intn(n), rng.Intn(2) == 0
				want := learnModel(i, v)
				if got := tr.Learn(i, v); got != want {
					t.Fatalf("n=%d: Learn(%d,%v) conflict %v, model %v", n, i, v, got, want)
				}
			case 1: // LearnRange from a random source at a random offset
				src := Random(rng, rng.Intn(2*n)+1)
				length := rng.Intn(min(src.Len(), n) + 1)
				lo := rng.Intn(n - length + 1)
				srcOff := rng.Intn(src.Len() - length + 1)
				want := false
				for i := 0; i < length; i++ {
					if learnModel(lo+i, src.Get(srcOff+i)) {
						want = true
					}
				}
				if got := tr.LearnRange(lo, lo+length, src, srcOff); got != want {
					t.Fatalf("n=%d: LearnRange [%d,%d) conflict %v, model %v", n, lo, lo+length, got, want)
				}
			case 2: // KnownRange / AnyKnown / KnownSegment
				length := rng.Intn(n + 1)
				lo := rng.Intn(n - length + 1)
				want, wantAny := true, false
				for i := lo; i < lo+length; i++ {
					if known[i] {
						wantAny = true
					} else {
						want = false
					}
				}
				if got := tr.KnownRange(lo, lo+length); got != want {
					t.Fatalf("n=%d: KnownRange [%d,%d) = %v, model %v", n, lo, lo+length, got, want)
				}
				if got := tr.AnyKnown(lo, lo+length); got != wantAny {
					t.Fatalf("n=%d: AnyKnown [%d,%d) = %v, model %v", n, lo, lo+length, got, wantAny)
				}
				seg, ok := tr.KnownSegment(lo, length)
				if ok != want {
					t.Fatalf("n=%d: KnownSegment ok %v, model %v", n, ok, want)
				}
				if ok {
					for i := 0; i < length; i++ {
						if seg.Get(i) != vals[lo+i] {
							t.Fatalf("n=%d: KnownSegment bit %d wrong", n, i)
						}
					}
				}
			case 3: // UnknownIn
				length := rng.Intn(n + 1)
				lo := rng.Intn(n - length + 1)
				var want []int
				for i := lo; i < lo+length; i++ {
					if !known[i] {
						want = append(want, i)
					}
				}
				got := tr.UnknownIn(nil, lo, length)
				if len(got) != len(want) {
					t.Fatalf("n=%d: UnknownIn [%d,%d) len %d, model %d", n, lo, lo+length, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("n=%d: UnknownIn[%d] = %d, model %d", n, i, got[i], want[i])
					}
				}
			case 4: // LearnSegment at a random start
				seg := Random(rng, rng.Intn(n)+1)
				if seg.Len() > n {
					continue
				}
				start := rng.Intn(n - seg.Len() + 1)
				for i := 0; i < seg.Len(); i++ {
					learnModel(start+i, seg.Get(i))
				}
				tr.LearnSegment(start, seg)
			}
			// Aggregate invariants after every op.
			unknown := 0
			for i := 0; i < n; i++ {
				if !known[i] {
					unknown++
				}
				if tr.Known(i) != known[i] {
					t.Fatalf("n=%d: Known(%d) = %v, model %v", n, i, tr.Known(i), known[i])
				}
				if v, ok := tr.Get(i); ok != known[i] || (ok && v != vals[i]) {
					t.Fatalf("n=%d: Get(%d) = %v,%v; model %v,%v", n, i, v, ok, vals[i], known[i])
				}
			}
			if tr.UnknownCount() != unknown {
				t.Fatalf("n=%d: UnknownCount %d, model %d", n, tr.UnknownCount(), unknown)
			}
			if tr.Complete() != (unknown == 0) {
				t.Fatalf("n=%d: Complete %v with %d unknown", n, tr.Complete(), unknown)
			}
		}
	}
}

// mixedIndices draws an index list over [0, n) from the shapes the
// run-aware paths must tell apart: ascending runs of 63, 64 and 65 and of
// random length that start and end off word boundaries, descending
// stretches, repeated indices and scattered singles, in random order.
func mixedIndices(rng *rand.Rand, n int) []int {
	var idx []int
	for pieces := rng.Intn(8) + 1; pieces > 0; pieces-- {
		length := []int{1, 2, 63, 64, 65, 130, rng.Intn(300) + 1}[rng.Intn(7)]
		if length > n {
			length = n
		}
		start := rng.Intn(n - length + 1)
		switch rng.Intn(4) {
		case 0, 1: // ascending run
			for i := 0; i < length; i++ {
				idx = append(idx, start+i)
			}
		case 2: // descending stretch
			for i := length - 1; i >= 0; i-- {
				idx = append(idx, start+i)
			}
		case 3: // one index repeated, then scattered singles
			for i := 0; i < length%5+2; i++ {
				idx = append(idx, start)
			}
			for i := 0; i < length%7; i++ {
				idx = append(idx, rng.Intn(n))
			}
		}
	}
	return idx
}

// panics reports whether f panicked.
func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// TestGatherVsModel: Gather and GatherFrom agree with the per-bit model on
// lists mixing every run shape, at a span offset, and differ only in how
// they refuse an index outside the array — panic against ok=false.
func TestGatherVsModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1807))
	for _, n := range append(propLens, 4096) {
		a := Random(rng, n)
		for trial := 0; trial < 60; trial++ {
			idx := mixedIndices(rng, n)
			want := make([]bool, len(idx))
			for k, i := range idx {
				want[k] = a.Get(i)
			}
			checkAgainst(t, a.Gather(idx), want, "gather")

			base := rng.Intn(1000) - 200
			shifted := make([]int, len(idx))
			for k, i := range idx {
				shifted[k] = i + base
			}
			got, ok := a.GatherFrom(shifted, base)
			if !ok {
				t.Fatalf("n=%d: GatherFrom refused in-range indices at base %d", n, base)
			}
			checkAgainst(t, got, want, "gather-from")

			// One index just past either end, at a random position —
			// inside a run as often as not.
			at := rng.Intn(len(idx))
			for _, out := range []int{-1, n} {
				bad := append([]int(nil), idx...)
				bad[at] = out
				if got, ok := a.GatherFrom(bad, 0); ok || got != nil {
					t.Fatalf("n=%d: GatherFrom accepted index %d", n, out)
				}
				if !panics(func() { a.Gather(bad) }) {
					t.Fatalf("n=%d: Gather accepted index %d", n, out)
				}
			}
		}
	}
	// A run whose start is in range and whose end is not, and an index
	// whose offset from base overflows.
	a := Random(rng, 200)
	run := make([]int, 100)
	for i := range run {
		run[i] = 150 + i
	}
	if _, ok := a.GatherFrom(run, 0); ok {
		t.Fatal("GatherFrom accepted a run ending past the array")
	}
	const maxInt = int(^uint(0) >> 1)
	if _, ok := a.GatherFrom([]int{maxInt}, -1); ok {
		t.Fatal("GatherFrom accepted an overflowing offset")
	}
	for i := range run {
		run[i] = maxInt - 99 + i
	}
	if _, ok := a.GatherFrom(run, 0); ok {
		t.Fatal("GatherFrom accepted a run at the top of the int range")
	}
}

// TestLearnIndexedVsModel: the indexed source-authoritative learn leaves a
// tracker exactly as one LearnFromSource per index, in order, would — known
// bits overwritten, a repeated index keeping its last value, unknown
// counted down once per newly known bit.
func TestLearnIndexedVsModel(t *testing.T) {
	rng := rand.New(rand.NewSource(2718))
	for _, n := range append(propLens, 4096) {
		tr, ref := NewTracker(n), NewTracker(n)
		for trial := 0; trial < 40; trial++ {
			// Some peer-learned bits first, so overwrites have something
			// to overwrite.
			for k := rng.Intn(n/4 + 1); k > 0; k-- {
				i, v := rng.Intn(n), rng.Intn(2) == 0
				tr.Learn(i, v)
				ref.Learn(i, v)
			}
			idx := mixedIndices(rng, n)
			vals := Random(rng, len(idx)+rng.Intn(3))
			tr.LearnIndexedFromSource(idx, vals)
			for k, i := range idx {
				ref.LearnFromSource(i, vals.Get(k))
			}
			if tr.UnknownCount() != ref.UnknownCount() {
				t.Fatalf("n=%d: unknown %d, per-bit model %d", n, tr.UnknownCount(), ref.UnknownCount())
			}
			if !tr.known.Equal(ref.known) || !tr.vals.Equal(ref.vals) {
				t.Fatalf("n=%d trial %d: tracker differs from the per-bit model", n, trial)
			}
			if trial%10 == 9 {
				tr, ref = NewTracker(n), NewTracker(n)
			}
		}
		idx := mixedIndices(rng, n)
		if !panics(func() { NewTracker(n).LearnIndexedFromSource(idx, New(len(idx)-1)) }) {
			t.Fatalf("n=%d: learn accepted fewer values than indices", n)
		}
		for _, out := range []int{-1, n} {
			bad := append([]int(nil), idx...)
			bad[rng.Intn(len(bad))] = out
			if !panics(func() { NewTracker(n).LearnIndexedFromSource(bad, New(len(bad))) }) {
				t.Fatalf("n=%d: learn accepted index %d", n, out)
			}
		}
	}
	run := make([]int, 100)
	for i := range run {
		run[i] = 150 + i
	}
	if !panics(func() { NewTracker(200).LearnIndexedFromSource(run, New(100)) }) {
		t.Fatal("learn accepted a run ending past the tracker")
	}
}

func TestArenaMatchesFreshArrays(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ar := NewArena(8, 8*130)
	var got, want []*Array
	total := 0
	for i := 0; i < 12; i++ { // 4 beyond capacity to exercise the fallback
		n := []int{1, 63, 64, 65, 130}[rng.Intn(5)]
		total += n
		a, b := ar.New(n), New(n)
		for j := 0; j < n; j += 3 {
			a.Set(j, true)
			b.Set(j, true)
		}
		got, want = append(got, a), append(want, b)
	}
	// Writes to one arena array must not leak into its neighbors.
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("array %d: arena %s, fresh %s", i, got[i], want[i])
		}
	}
}

// TestUnknownWordVsModel checks the word walk of the unknown bits against
// the bit model: word wi holds bit b exactly when bit 64·wi+b is below Len
// and unknown, so no bit past Len ever reads as unknown — on a fresh
// tracker, as bits are learned, and once it is complete. The lengths sit
// on and off the word boundary, one of them a single bit.
func TestUnknownWordVsModel(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for _, n := range []int{1, 63, 64, 65, 4096, 65536 + 7} {
		tr := NewTracker(n)
		known := make([]bool, n)
		check := func(stage string) {
			t.Helper()
			if got, want := tr.UnknownWords(), (n+63)/64; got != want {
				t.Fatalf("n=%d %s: %d words, want %d", n, stage, got, want)
			}
			for wi := 0; wi < tr.UnknownWords(); wi++ {
				w := tr.UnknownWord(wi)
				for b := 0; b < 64; b++ {
					i := wi*64 + b
					if want := i < n && !known[i]; (w>>uint(b))&1 == 1 != want {
						t.Fatalf("n=%d %s: word %d bit %d (index %d) reads unknown=%v, model %v", n, stage, wi, b, i, !want, want)
					}
				}
			}
			if !panics(func() { tr.UnknownWord(tr.UnknownWords()) }) {
				t.Fatalf("n=%d %s: word %d past the last read without a panic", n, stage, tr.UnknownWords())
			}
		}
		check("fresh")
		for _, density := range []float64{0.01, 0.2, 0.6} {
			for k := 0; k < int(density*float64(n))+1; k++ {
				lo := rng.Intn(n)
				hi := min(n, lo+1+rng.Intn(70))
				if rng.Intn(2) == 0 {
					hi = lo + 1
				}
				tr.LearnRange(lo, hi, New(n), lo)
				for i := lo; i < hi; i++ {
					known[i] = true
				}
			}
			check("partly known")
		}
		tr.LearnRange(0, n, New(n), 0)
		for i := range known {
			known[i] = true
		}
		check("complete")
	}
}
