package wire_test

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/des"
	"repro/internal/intset"
	"repro/internal/protocols/crashk"
	"repro/internal/sim"
	"repro/internal/wire"
)

// BenchmarkSetCodec prices the index-set codec on the shapes of the
// tcp-crashk cell (N=16, T=8, L=65536; source of truth for the cell is
// benchmark/workloads.go). Two are Req1 sets: phase 1 asks an owner for
// its whole block, one range of L/N bits; from phase 2 on the per-bit
// owner hash leaves about one range per bit — here 2,048 one-bit ranges
// with gaps of 2–33, every one a single byte. The third, req2item, is
// crashk's own: the first item of the first phase-2 Req2 of a des run at
// the cell's shape, one crashed owner's share of 1,962 indices in 1,838
// ranges, 115 of them two indices long, so the codec takes its 0x00
// escape about once in 16 ranges. Reported per range, time and allocated
// bytes: the encoder appends into a buffer kept across iterations, the
// decoder allocates the message and its set, Scan validates the item's
// set in place. walk-first is what a recipient of the item mostly does,
// a walk that stops at the first range, reported per walk.
func BenchmarkSetCodec(b *testing.B) {
	const L, N = 65536, 16
	rng := rand.New(rand.NewSource(9))
	var phase2 intset.Builder
	for i, x := 0, 0; i < 2048; i++ {
		phase2.Add(x)
		x += 2 + rng.Intn(32)
	}
	perRange := func(b *testing.B, ranges int, op func()) {
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
		b.Run(shape.name+"-encode", func(b *testing.B) {
			buf := make([]byte, 0, len(raw))
			perRange(b, ranges, func() {
				out, err := wire.MarshalAppend(buf[:0], shape.req)
				if err != nil || len(out) != len(raw) {
					b.Fatalf("encoded %d bytes, %v; want %d", len(out), err, len(raw))
				}
			})
		})
		b.Run(shape.name+"-decode", func(b *testing.B) {
			perRange(b, ranges, func() {
				m, err := wire.Unmarshal(raw, L)
				if err != nil || m.(*crashk.Req1).Indices.RangeCount() != ranges {
					b.Fatalf("decoded %v, %v", m, err)
				}
			})
		})
	}

	item := phase2Share(b, L)
	ranges := item.RangeCount()
	req := &crashk.Req2{Phase: 2, IdxBits: 16, Items: []crashk.Req2Item{{Q: 3, Indices: intset.Hold(item)}}}
	raw, err := wire.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	enc := intset.AppendEncoding(nil, item)
	b.Run("req2item-encode", func(b *testing.B) {
		buf := make([]byte, 0, len(raw))
		perRange(b, ranges, func() {
			out, err := wire.MarshalAppend(buf[:0], req)
			if err != nil || len(out) != len(raw) {
				b.Fatalf("encoded %d bytes, %v; want %d", len(out), err, len(raw))
			}
		})
	})
	b.Run("req2item-scan", func(b *testing.B) {
		perRange(b, ranges, func() {
			if sp, n, ok := intset.Scan(enc); !ok || n != len(enc) || sp.Lazy().RangeCount() != ranges {
				b.Fatalf("scanned %d of %d bytes, %v", n, len(enc), ok)
			}
		})
	})
	b.Run("req2item-walk-first", func(b *testing.B) {
		sp, _, _ := intset.Scan(enc)
		l, first := sp.Lazy(), item.Ranges()[0]
		lo := 0
		stop := func(l, _ int) bool { lo = l; return false }
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l.Walk(stop)
		}
		b.StopTimer()
		if lo != int(first.Lo) {
			b.Fatalf("the walk stopped at %d, want %d", lo, first.Lo)
		}
	})
}

// phase2Share runs crashkFast(L) on des and returns the set of the first
// item of the first phase-2 Req2 sent: one crashed owner's share of the
// bits still unknown.
func phase2Share(b *testing.B, L int) intset.Set {
	c := crashkFast(L)
	spec := c.Spec()
	first := &firstReq2{phase: 2}
	spec.Observer = first
	if res, err := des.New().Run(spec); err != nil || !res.Correct {
		b.Fatalf("des run: %v, %v", res, err)
	}
	if first.req == nil {
		b.Fatal("no phase-2 Req2 sent")
	}
	return first.req.Items[0].Indices.Set()
}

// firstReq2 keeps the first Req2 of the given phase a run sends.
type firstReq2 struct {
	phase int
	req   *crashk.Req2
}

func (f *firstReq2) OnEvent(ev *sim.ObservedEvent) {
	if r, ok := ev.Msg.(*crashk.Req2); ok && f.req == nil && ev.Kind == "send" && r.Phase == f.phase {
		f.req = r
	}
}
