package wire_test

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/intset"
	"repro/internal/protocols/crashk"
	"repro/internal/wire"
)

// BenchmarkSetCodec prices the index-set codec on the two Req1 shapes of
// the tcp-crashk cell (N=16, T=8, L=65536; source of truth for the cell is
// benchmark/workloads.go): phase 1 asks an owner for its whole block, one
// range of L/N bits; from phase 2 on the per-bit owner hash leaves about
// one range per bit — here 2,048 one-bit ranges with gaps of 2–33. Reported
// per range, time and allocated bytes: the encoder appends into a buffer
// kept across iterations, the decoder allocates the message and its set.
func BenchmarkSetCodec(b *testing.B) {
	const L, N = 65536, 16
	rng := rand.New(rand.NewSource(9))
	var phase2 intset.Builder
	for i, x := 0, 0; i < 2048; i++ {
		phase2.Add(x)
		x += 2 + rng.Intn(32)
	}
	for _, shape := range []struct {
		name string
		req  *crashk.Req1
	}{
		{"phase1", &crashk.Req1{Phase: 1, Indices: intset.FromRange(5*L/N, 6*L/N), IdxBits: 16}},
		{"phase2", &crashk.Req1{Phase: 2, Indices: phase2.Set(), IdxBits: 16}},
	} {
		ranges := shape.req.Indices.RangeCount()
		raw, err := wire.Marshal(shape.req)
		if err != nil {
			b.Fatal(err)
		}
		perRange := func(b *testing.B, op func()) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			total := float64(b.N) * float64(ranges)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/range")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/total, "B/range")
		}
		b.Run(shape.name+"-encode", func(b *testing.B) {
			buf := make([]byte, 0, len(raw))
			perRange(b, func() {
				out, err := wire.MarshalAppend(buf[:0], shape.req)
				if err != nil || len(out) != len(raw) {
					b.Fatalf("encoded %d bytes, %v; want %d", len(out), err, len(raw))
				}
			})
		})
		b.Run(shape.name+"-decode", func(b *testing.B) {
			perRange(b, func() {
				m, err := wire.Unmarshal(raw, L)
				if err != nil || m.(*crashk.Req1).Indices.RangeCount() != ranges {
					b.Fatalf("decoded %v, %v", m, err)
				}
			})
		})
	}
}
