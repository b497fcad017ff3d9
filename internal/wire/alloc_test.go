package wire

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/bitarray"
	"repro/internal/intset"
	"repro/internal/protocols/crash1"
	"repro/internal/protocols/crashk"
	"repro/internal/sim"
)

// TestMarshalAppendAllocFree pins the encode path's allocation contract:
// appending into a buffer with sufficient capacity must not allocate at
// all. The TCP runtime relies on this to encode a message straight into
// the buffer its outbox retains, and bitarray.AppendTo exists precisely to
// keep this path free of intermediate []byte materialization.
func TestMarshalAppendAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	msg := &crash1.Push{
		Phase:   1,
		Indices: intset.FromRange(100, 1124),
		Values:  bitarray.Random(rng, 1024),
		IdxBits: 11,
	}
	buf := make([]byte, 0, 4096)
	allocs := testing.AllocsPerRun(100, func() {
		out, err := MarshalAppend(buf, msg)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) == 0 {
			t.Fatal("empty encoding")
		}
	})
	if allocs != 0 {
		t.Fatalf("MarshalAppend into presized buffer allocated %.1f times per op, want 0", allocs)
	}
}

// TestMarshalAllocBudget bounds the convenience path: Marshal may allocate
// only for the returned buffer (append growth), not per-field.
func TestMarshalAllocBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	msg := &crash1.Push{
		Phase:   1,
		Indices: intset.FromRange(0, 512),
		Values:  bitarray.Random(rng, 512),
		IdxBits: 10,
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := Marshal(msg); err != nil {
			t.Fatal(err)
		}
	})
	// Appending ~600 bytes from nil grows the slice a handful of times;
	// anything beyond that means a field started materializing copies.
	if allocs > 6 {
		t.Fatalf("Marshal allocated %.1f times per op, budget 6", allocs)
	}
}

// TestUnmarshalSetAllocBudget pins the decode side of a phase ≥ 2 request,
// whose set has about one range per bit: the message, the set's ranges
// reserved once from the count in the header — eight bytes each — and
// nothing per range. On the wire each of those ranges is one byte, its
// gap; the decoded set is eight times its encoding.
func TestUnmarshalSetAllocBudget(t *testing.T) {
	var b intset.Builder
	for x := 0; x < 2*4096; x += 2 {
		b.Add(x)
	}
	raw, err := Marshal(&crashk.Req1{Phase: 2, Indices: b.Set(), IdxBits: 13})
	if err != nil {
		t.Fatal(err)
	}
	const ranges, runs = 4096, 100
	if len(raw) > ranges+8 {
		t.Fatalf("a %d-range Req1 of one-index ranges is %d bytes, budget one a range + 8", ranges, len(raw))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, func() {
		m, err := Unmarshal(raw, 1<<13)
		if err != nil || m.(*crashk.Req1).Indices.RangeCount() != ranges {
			t.Fatalf("decode: %v, %v", m, err)
		}
	})
	runtime.ReadMemStats(&after)
	if allocs > 3 {
		t.Fatalf("Unmarshal of a %d-range Req1 allocated %.1f times per op, budget 3", ranges, allocs)
	}
	// AllocsPerRun makes one warm-up call beyond its runs.
	if perOp := (after.TotalAlloc - before.TotalAlloc) / (runs + 1); perOp > 8*ranges+256 {
		t.Fatalf("Unmarshal of a %d-range Req1 allocated %d bytes per op, budget 8 a range + 256", ranges, perOp)
	}
}

// TestUnmarshalReq2AllocBudget pins the decode of a Req2 shaped like
// tcp-crashk's from phase 2 on (N=16, T=8, L=65536): eight items of 1,900
// one-bit ranges, one byte each on the wire. Its items keep their sets as
// their validated encodings, so the decode allocates the message, the
// items, their spans and one copy of the bytes — at most items + 2 objects
// and 1.25 B a range, where unpacked ranges would take 8 B a range.
func TestUnmarshalReq2AllocBudget(t *testing.T) {
	const items, ranges, L = 8, 1900, 1 << 16
	rng := rand.New(rand.NewSource(23))
	req := &crashk.Req2{Phase: 2, IdxBits: 16}
	for q := 1; q < 2*items; q += 2 {
		var b intset.Builder
		for i, x := 0, rng.Intn(40); i < ranges; i++ {
			b.Add(x)
			x += 2 + rng.Intn(62)
		}
		req.Items = append(req.Items, crashk.Req2Item{Q: sim.PeerID(q), Indices: intset.Hold(b.Set())})
	}
	raw, err := Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, func() {
		m, err := Unmarshal(raw, L)
		if err != nil || len(m.(*crashk.Req2).Items) != items || m.(*crashk.Req2).Items[items-1].Indices.RangeCount() != ranges {
			t.Fatalf("decode: %v", err)
		}
	})
	runtime.ReadMemStats(&after)
	if allocs > items+2 {
		t.Fatalf("Unmarshal of a %d-item Req2 allocated %.1f times per op, budget %d", items, allocs, items+2)
	}
	// AllocsPerRun makes one warm-up call beyond its runs.
	perOp := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
	perRange := perOp / (items * ranges)
	t.Logf("%.0f allocations, %.2f B a range", allocs, perRange)
	if perRange > 1.25 {
		t.Fatalf("Unmarshal of a %d-item Req2 allocated %.0f bytes per op, %.2f B a range, budget 1.25", items, perOp, perRange)
	}
}

// HostileSetCount is a Req1 whose set header claims 2^20 ranges (the most
// maxItems lets through) in a 16-byte payload. Exported for the fuzz seed
// corpus in package wire_test.
func HostileSetCount() []byte {
	raw := binary.AppendUvarint([]byte{tagCrashkReq1, 1}, maxItems)
	for len(raw) < 1+16 {
		raw = append(raw, 1)
	}
	return raw
}

// TestHostileSetCountSizesNoAllocation: the count in a set header sizes
// the decoder's one reservation, so a count the payload cannot hold must
// be refused before it does — here 16 MB of ranges for 16 bytes of frame.
func TestHostileSetCountSizesNoAllocation(t *testing.T) {
	raw := HostileSetCount()
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := Unmarshal(raw, 4096); !errors.Is(err, ErrTruncated) {
			t.Fatalf("hostile set count: err = %v, want ErrTruncated", err)
		}
	}
	runtime.ReadMemStats(&after)
	if perOp := (after.TotalAlloc - before.TotalAlloc) / runs; perOp >= 1024 {
		t.Fatalf("hostile set count allocated %d bytes per decode, want < 1 KB", perOp)
	}
}

// TestDecodedSetsAreSorted: crashk rules a set in or out of range by its
// bounds alone (intset.Lazy.Bounds), which is sound only if the ranges of
// every set the decoder lets through are sorted and disjoint. Frames here
// are valid Req2 encodings, the same with bytes overwritten, and the
// hostile-count frame; whatever decodes must agree with a per-range walk,
// and its walk with the set it unpacks to.
func TestDecodedSetsAreSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	frames := [][]byte{HostileSetCount()}
	for i := 0; i < 300; i++ {
		req := &crashk.Req2{Phase: 1 + rng.Intn(4), IdxBits: 12}
		for k := rng.Intn(5); k > 0; k-- {
			var b intset.Builder
			for x := rng.Intn(50); x < 4000 && rng.Intn(12) > 0; x += 40 + rng.Intn(300) {
				b.AddRange(x, x+1+rng.Intn(40))
			}
			req.Items = append(req.Items, crashk.Req2Item{Q: 3, Indices: intset.Hold(b.Set())})
		}
		raw, err := Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, raw)
		for k := 0; k < 8; k++ {
			bad := append([]byte(nil), raw...)
			for j := 1 + rng.Intn(3); j > 0 && len(bad) > 1; j-- {
				bad[1+rng.Intn(len(bad)-1)] = byte(rng.Intn(256))
			}
			frames = append(frames, bad)
		}
	}
	decoded := 0
	for _, raw := range frames {
		m, err := Unmarshal(raw, 4096)
		if err != nil {
			continue
		}
		req, ok := m.(*crashk.Req2)
		if !ok {
			continue
		}
		for _, it := range req.Items {
			decoded++
			prevHi, minLo, maxHi := -1, 0, 0
			var walked []intset.Range
			it.Indices.Walk(func(lo, hi int) bool {
				if lo <= prevHi || hi <= lo {
					t.Fatalf("decoded set %v: range [%d,%d) after end %d", it.Indices, lo, hi, prevHi)
				}
				if prevHi < 0 {
					minLo = lo
				}
				prevHi, maxHi = hi, hi
				walked = append(walked, intset.Range{Lo: int32(lo), Hi: int32(hi)})
				return true
			})
			if lo, hi := it.Indices.Bounds(); lo != minLo || hi != maxHi {
				t.Fatalf("decoded set %v: Bounds [%d,%d), walk [%d,%d)", it.Indices, lo, hi, minLo, maxHi)
			}
			if set := it.Indices.Set(); !slices.Equal(set.Ranges(), walked) {
				t.Fatalf("decoded set unpacks to %v, walks as %v", set, walked)
			}
		}
	}
	if decoded < 300 {
		t.Fatalf("only %d sets decoded: the frames do not exercise the decoder", decoded)
	}
}
