package bitarray

import (
	"math/rand"
	"testing"
)

// indexShapes are the index lists the indexed operations meet in the
// benchmark workloads: naive's whole-array query (one run), crashk's
// phase ≥ 2 owner sets (thousands of runs of one or two) and hub-load's
// eight-bit queries. A change that speeds one must not slow the others.
func indexShapes() []struct {
	name string
	idx  []int
} {
	run := make([]int, 262144)
	for i := range run {
		run[i] = i
	}
	rng := rand.New(rand.NewSource(5))
	var short []int
	for pos, runs := 0, 0; runs < 4096; runs++ {
		pos += 2 + rng.Intn(40)
		for n := 1 + rng.Intn(2); n > 0; n-- {
			short = append(short, pos)
			pos++
		}
	}
	return []struct {
		name string
		idx  []int
	}{
		{"run262144", run},
		{"runs4096x1-2", short},
		{"eight", []int{1000, 1001, 1002, 1003, 1004, 1005, 1006, 1007}},
	}
}

var sinkArray *Array

func BenchmarkGather(b *testing.B) {
	a := Random(rand.New(rand.NewSource(1)), 262144)
	for _, sh := range indexShapes() {
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkArray = a.Gather(sh.idx)
			}
		})
	}
}

func BenchmarkLearnIndexed(b *testing.B) {
	for _, sh := range indexShapes() {
		vals := Random(rand.New(rand.NewSource(2)), len(sh.idx))
		b.Run(sh.name, func(b *testing.B) {
			t := NewTracker(262144)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t.LearnIndexedFromSource(sh.idx, vals)
			}
		})
	}
}
