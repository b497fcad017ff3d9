package main

import (
	"hash/fnv"
	"math"
	"sort"

	"repro/internal/hashmix"
)

// tailBeyond is how many samples must lie beyond a reported percentile.
const tailBeyond = 10

// tailPercentile picks the tail a workload reports from the sample count
// it is guaranteed to reach: the highest of p90 and p75 that leaves at
// least tailBeyond samples beyond it, 0 when neither does. The ladder
// stops at p90 on purpose: p99 of the hub's query latency moved by a
// quarter between identical runs on the 2-core VM this was sized on.
func tailPercentile(minSamples int) int {
	for _, p := range []int{90, 75} {
		if minSamples-rank(minSamples, float64(p)) >= tailBeyond {
			return p
		}
	}
	return 0
}

// rank is the 1-based nearest-rank position of percentile p in n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile reads percentile p (nearest rank) from an ascending sample;
// 0 on an empty one.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// ratio is a/b, 0 when b is 0: a layer metric that divides by a count the
// workload never produced reads 0, like the count itself.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func strHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// deriveSeed is the only source of randomness in the harness: every op
// seed, input array and fault-plan seed is a pure function of the -seed
// flag, the workload, what the seed is for, and an ordinal. The result is
// non-negative so it can be spliced into the plan grammars.
func deriveSeed(seed int64, workload, purpose string, i int) int64 {
	return int64(hashmix.Mix64(uint64(seed), strHash(workload), strHash(purpose), uint64(i)) >> 1)
}
