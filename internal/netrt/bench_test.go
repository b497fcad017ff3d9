package netrt

import (
	"math/rand"
	"testing"
)

// queryShapes are the index lists the query header codec meets in the
// benchmark workloads: naive's whole-array query (one run of 262,144),
// crashk's phase ≥ 2 owner sets (4,096 runs of one or two) and hub-load's
// eight-bit queries.
func queryShapes() []struct {
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

var (
	sinkBytes []byte
	sinkInts  []int
	sinkInt   int
	sinkKey   qkey
)

// BenchmarkQueryHeader times the four things the runtime does with a query
// header — encode it, scan it, decode it, key it — on each shape.
func BenchmarkQueryHeader(b *testing.B) {
	for _, sh := range queryShapes() {
		hdr := encodeQueryHeader(3, sh.idx)
		b.Run("encode/"+sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkBytes = encodeQueryHeader(3, sh.idx)
			}
		})
		b.Run("scan/"+sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, _, sinkInt, _, _, _ = scanQuery(hdr, len(sh.idx))
			}
		})
		b.Run("decode/"+sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, sinkInts, _, _ = decodeQuery(hdr, len(sh.idx))
			}
		})
		b.Run("key/"+sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkKey = qkeyOfHeader(3, hdr)
			}
		})
	}
}

// BenchmarkHubLoad is one hub-load trial of `go run ./benchmark` an
// iteration, for taking a profile of it (`make profile CELL=hub-load`).
// The source of truth for the parameters is benchmark/workloads.go
// (loadTrial and loadOp's hub); copy a change there to here. The input is
// the seed-derived default and not a generated array, which the profiled
// code does not see. Every query must be answered.
func BenchmarkHubLoad(b *testing.B) {
	trial := LoadSpec{Clients: 25000, Conns: 2, QueriesPerClient: 4, BitsPerQuery: 8, Window: 256}
	want := int64(trial.Clients * trial.QueriesPerClient)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hub, err := StartHub(Config{N: 2, Shards: 2, ShardQueue: 1024, L: 4096, MsgBits: 64, Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		res, err := hub.GenerateLoad(trial)
		var dropped int64
		for _, s := range hub.ShardStats() {
			dropped += s.Dropped
		}
		hub.Close()
		if err != nil {
			b.Fatal(err)
		}
		if res.Queries != want || res.Replies != want || res.TimedOut || dropped != 0 {
			b.Fatalf("queries=%d replies=%d (want %d each) timedOut=%v shardDropped=%d",
				res.Queries, res.Replies, want, res.TimedOut, dropped)
		}
		b.ReportMetric(res.Percentile(50), "p50-ms")
	}
}
