package bitarray

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTrackerBasics(t *testing.T) {
	tr := NewTracker(10)
	if tr.Len() != 10 || tr.UnknownCount() != 10 || tr.Complete() {
		t.Fatalf("fresh tracker state wrong: %d unknown", tr.UnknownCount())
	}
	if _, ok := tr.Get(3); ok {
		t.Fatal("unknown bit reported known")
	}
	tr.Learn(3, true)
	if v, ok := tr.Get(3); !ok || !v {
		t.Fatal("learned bit not retrievable")
	}
	if tr.UnknownCount() != 9 {
		t.Fatalf("unknown = %d, want 9", tr.UnknownCount())
	}
	// Re-learning same value: no-op, no conflict.
	if tr.Learn(3, true) {
		t.Fatal("same-value relearn reported conflict")
	}
	// Conflicting learn: first value wins, conflict reported.
	if !tr.Learn(3, false) {
		t.Fatal("conflicting learn not reported")
	}
	if v, _ := tr.Get(3); !v {
		t.Fatal("first-learned value overwritten by Learn")
	}
	// Source overwrites.
	if !tr.LearnFromSource(3, false) {
		t.Fatal("source overwrite not reported")
	}
	if v, _ := tr.Get(3); v {
		t.Fatal("source value did not win")
	}
	if tr.UnknownCount() != 9 {
		t.Fatalf("unknown changed on relearn: %d", tr.UnknownCount())
	}
}

func TestTrackerOutput(t *testing.T) {
	tr := NewTracker(4)
	if _, err := tr.Output(); err == nil {
		t.Fatal("incomplete output did not error")
	}
	for i := 0; i < 4; i++ {
		tr.Learn(i, i%2 == 0)
	}
	out, err := tr.Output()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if out.Get(i) != (i%2 == 0) {
			t.Errorf("output bit %d wrong", i)
		}
	}
}

func TestTrackerUnknownAll(t *testing.T) {
	tr := NewTracker(200)
	known := map[int]bool{0: true, 63: true, 64: true, 100: true, 199: true}
	for i := range known {
		tr.Learn(i, true)
	}
	got := tr.UnknownAll()
	if len(got) != 200-len(known) {
		t.Fatalf("UnknownAll len = %d", len(got))
	}
	prev := -1
	for _, x := range got {
		if known[x] {
			t.Errorf("known bit %d in UnknownAll", x)
		}
		if x <= prev {
			t.Errorf("UnknownAll not increasing at %d", x)
		}
		prev = x
	}
}

func TestTrackerUnknownIn(t *testing.T) {
	tr := NewTracker(20)
	tr.Learn(5, true)
	tr.Learn(7, false)
	got := tr.UnknownIn(nil, 4, 5)
	want := []int{4, 6, 8}
	if len(got) != len(want) {
		t.Fatalf("UnknownIn = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("UnknownIn = %v, want %v", got, want)
		}
	}
}

// runsOf groups an increasing index list into maximal runs [lo, hi).
func runsOf(idx []int) [][2]int {
	var runs [][2]int
	for _, x := range idx {
		if k := len(runs) - 1; k >= 0 && runs[k][1] == x {
			runs[k][1]++
			continue
		}
		runs = append(runs, [2]int{x, x + 1})
	}
	return runs
}

// TestUnknownRunsVsUnknownIn: the runs are exactly UnknownIn's indices,
// grouped, over masks of every density — runs inside a word, across
// words, a bit long — and over ranges with unaligned ends, empty, all
// known and all unknown. A range outside the tracker panics.
func TestUnknownRunsVsUnknownIn(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ones := New(1024)
	ones.Fill(true)
	for trial := 0; trial < 400; trial++ {
		n := []int{1, 63, 64, 65, 128, 200, 1000}[trial%7]
		tr := NewTracker(n)
		density := []float64{0, 0.02, 0.3, 0.7, 0.98, 1}[trial%6]
		for x := 0; x < n; {
			hi := x + 1
			if trial%3 == 0 { // known and unknown runs of up to two words
				hi = min(n, x+1+rng.Intn(130))
			}
			if rng.Float64() < density {
				tr.LearnRange(x, hi, ones, 0)
			}
			x = hi
		}
		for k := 0; k < 20; k++ {
			lo := rng.Intn(n + 1)
			hi := lo + rng.Intn(n-lo+1)
			switch k {
			case 0:
				lo, hi = 0, n
			case 1:
				hi = lo
			}
			var got [][2]int
			tr.UnknownRuns(lo, hi, func(a, b int) { got = append(got, [2]int{a, b}) })
			want := runsOf(tr.UnknownIn(nil, lo, hi-lo))
			if len(got) != len(want) {
				t.Fatalf("n=%d [%d,%d): runs %v, want %v", n, lo, hi, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d [%d,%d): runs %v, want %v", n, lo, hi, got, want)
				}
			}
		}
	}
	tr := NewTracker(100)
	for _, r := range [][2]int{{-1, 5}, {0, 101}, {7, 6}} {
		if !panics(func() { tr.UnknownRuns(r[0], r[1], func(int, int) {}) }) {
			t.Errorf("UnknownRuns(%d, %d) on 100 bits did not panic", r[0], r[1])
		}
	}
}

func TestTrackerSegments(t *testing.T) {
	tr := NewTracker(100)
	seg := FromBools([]bool{true, true, false, true})
	tr.LearnSegment(10, seg)
	got, ok := tr.KnownSegment(10, 4)
	if !ok || !got.Equal(seg) {
		t.Fatal("KnownSegment mismatch")
	}
	if _, ok := tr.KnownSegment(9, 4); ok {
		t.Fatal("partially unknown segment reported known")
	}
	snap := tr.Snapshot()
	if snap.Len() != 100 || !snap.Get(10) {
		t.Fatal("snapshot wrong")
	}
}

// Property: learning a random permutation of all bits yields the source
// array, and UnknownCount decreases monotonically to zero.
func TestQuickTrackerFullLearn(t *testing.T) {
	f := func(seed int64, nU uint8) bool {
		n := int(nU)%300 + 1
		rng := rand.New(rand.NewSource(seed))
		src := Random(rng, n)
		tr := NewTracker(n)
		perm := rng.Perm(n)
		prev := n
		for _, i := range perm {
			tr.Learn(i, src.Get(i))
			if tr.UnknownCount() >= prev {
				return false
			}
			prev = tr.UnknownCount()
		}
		out, err := tr.Output()
		return err == nil && out.Equal(src) && tr.Complete()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: UnknownAll ∪ known indices partitions [0, n).
func TestQuickTrackerPartition(t *testing.T) {
	f := func(seed int64, nU uint8, kU uint8) bool {
		n := int(nU)%200 + 1
		rng := rand.New(rand.NewSource(seed))
		tr := NewTracker(n)
		learned := make(map[int]bool)
		for i := 0; i < int(kU); i++ {
			x := rng.Intn(n)
			tr.Learn(x, true)
			learned[x] = true
		}
		unk := tr.UnknownAll()
		if len(unk)+len(learned) != n {
			return false
		}
		for _, x := range unk {
			if learned[x] {
				return false
			}
		}
		return tr.UnknownCount() == len(unk)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
