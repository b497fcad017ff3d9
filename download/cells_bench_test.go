package download_test

import (
	"testing"

	"repro/download"
)

// benchCells are the download.Run cells of `go run ./benchmark`, for taking
// a profile of one of them (`make profile CELL=des-crashk`). The source of
// truth for the parameters is benchmark/workloads.go; copy a change there
// to here. Differences that do not touch the profiled code: the input is
// the seed-derived default and not a generated array, and tcp-naive-bmaj's
// mirror-plan seed is fixed. des-committee-quarter is not a benchmark
// workload: it is des-committee at β = 1/4, where a member's list is runs
// of one or two indices and not of 127, the other shape of schedule the
// vote tally has to be fast on. Table 1's committee cell is profiled
// through the root package's BenchmarkExperiments (`make profile
// CELL=table1-committee`).
var benchCells = []struct {
	name string
	opts download.Options
}{
	{"des-crashk", download.Options{Protocol: download.CrashKFast, N: 128, T: 115, L: 4096,
		Behavior: download.CrashImmediate}},
	{"des-committee", download.Options{Protocol: download.Committee, N: 128, T: 63, L: 2048,
		Behavior: download.Liar}},
	{"des-committee-quarter", download.Options{Protocol: download.Committee, N: 128, T: 32, L: 2048,
		Behavior: download.Liar}},
	{"tcp-crashk", download.Options{Protocol: download.CrashKFast, N: 16, T: 8, L: 65536,
		Behavior: download.CrashImmediate, TCP: true}},
	{"tcp-naive-bmaj", download.Options{Protocol: download.Naive, N: 16, T: 9, L: 262144,
		Behavior: download.CrashImmediate, TCP: true,
		Mirrors: "mirrors=5,byz=3,behavior=mixed,leaf=64,seed=7"}},
}

// BenchmarkCell runs whole downloads; every op must come out correct.
func BenchmarkCell(b *testing.B) {
	for _, cell := range benchCells {
		b.Run(cell.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				opts := cell.opts
				opts.Seed = int64(i + 1)
				rep, err := download.Run(opts)
				if err != nil {
					b.Fatal(err)
				}
				if !rep.Correct {
					b.Fatalf("seed %d: %v", opts.Seed, rep.Failures)
				}
			}
		})
	}
}
