package wire_test

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/adversary"
	"repro/internal/bitarray"
	"repro/internal/intset"
	"repro/internal/protocols/committee"
	"repro/internal/protocols/crash1"
	"repro/internal/protocols/crashk"
	"repro/internal/protocols/segproto"
	"repro/internal/sim"
	"repro/internal/wire"
)

const testL = 4096

func roundTrip(t *testing.T, m sim.Message) sim.Message {
	t.Helper()
	raw, err := wire.Marshal(m)
	if err != nil {
		t.Fatalf("Marshal(%T): %v", m, err)
	}
	got, err := wire.Unmarshal(raw, testL)
	if err != nil {
		t.Fatalf("Unmarshal(%T): %v", m, err)
	}
	return got
}

func randBits(rng *rand.Rand, n int) *bitarray.Array { return bitarray.Random(rng, n) }

func TestRoundTripAllTypes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	idxBits := segproto.IndexBits(testL)
	set := intset.FromSorted([]int{1, 2, 3, 100, 200, 201})

	msgs := []sim.Message{
		&crashk.Req1{Phase: 3, Indices: set, IdxBits: idxBits},
		&crashk.Resp1{Phase: 3, Indices: set, Values: randBits(rng, set.Len()), IdxBits: idxBits},
		&crashk.Req2{Phase: 2, IdxBits: idxBits, Items: []crashk.Req2Item{
			{Q: 5, Indices: intset.Hold(intset.FromRange(0, 64))},
			{Q: 9, Indices: intset.Hold(intset.FromSorted([]int{7, 9}))},
		}},
		&crashk.Resp2{Phase: 2, IdxBits: idxBits, MeNeither: intset.FromRange(5, 6), Items: []crashk.Resp2Item{
			{Q: 9, Indices: intset.FromSorted([]int{7, 9}), Values: randBits(rng, 2)},
		}},
		&crashk.Full{Values: randBits(rng, testL)},
		&crash1.Push{Phase: 1, Indices: intset.FromRange(64, 128), Values: randBits(rng, 64), IdxBits: idxBits},
		&crash1.WhoIsMissing{Phase: 1, Missing: 7},
		&crash1.MissingReply{Phase: 1, About: 7, MeNeither: true},
		&crash1.MissingReply{Phase: 2, About: 3, Indices: intset.FromRange(0, 10), Values: randBits(rng, 10), IdxBits: idxBits},
		&committee.Report{Indices: []int{0, 5, 17, 4000}, Bits: randBits(rng, 4), IdxBits: idxBits},
		&segproto.SegValue{Cycle: 2, Seg: 1, Values: randBits(rng, 512), IdxBits: idxBits},
		&adversary.Junk{Bits: 777},
	}
	for _, m := range msgs {
		got := roundTrip(t, m)
		checkEqual(t, m, got)
	}
}

// checkEqual compares messages structurally via re-marshal: two messages
// that encode identically are identical for protocol purposes.
func checkEqual(t *testing.T, a, b sim.Message) {
	t.Helper()
	ra, err := wire.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := wire.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(ra) != string(rb) {
		t.Fatalf("%T round trip changed encoding:\n%v\n%v", a, ra, rb)
	}
	if a.SizeBits() != b.SizeBits() {
		t.Fatalf("%T round trip changed SizeBits: %d -> %d", a, a.SizeBits(), b.SizeBits())
	}
}

func TestUnknownType(t *testing.T) {
	if _, err := wire.Marshal(unregistered{}); err == nil {
		t.Error("unregistered type marshaled")
	}
	if _, err := wire.Unmarshal([]byte{250, 1, 2}, testL); err == nil {
		t.Error("unknown tag unmarshaled")
	}
	if _, err := wire.Unmarshal(nil, testL); err == nil {
		t.Error("empty frame unmarshaled")
	}
}

type unregistered struct{}

func (unregistered) SizeBits() int { return 0 }

// TestTruncationRobustness: decoding is length-strict, so every proper
// prefix of a valid frame is ErrTruncated — never a shorter message, never
// a panic.
func TestTruncationRobustness(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := &crashk.Resp2{Phase: 2, IdxBits: 12, MeNeither: intset.FromRange(6, 7), Items: []crashk.Resp2Item{
		{Q: 5, Indices: intset.FromRange(0, 64), Values: randBits(rng, 64)},
		{Q: 7, Indices: intset.FromSorted([]int{3, 200, 201, 1000}), Values: randBits(rng, 4)},
	}}
	raw, err := wire.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wire.Unmarshal(raw, testL); err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(raw); cut++ {
		if _, err := wire.Unmarshal(raw[:cut], testL); !errors.Is(err, wire.ErrTruncated) {
			t.Fatalf("prefix of %d of %d bytes: err = %v, want ErrTruncated", cut, len(raw), err)
		}
	}
}

// TestFuzzDecoder throws random bytes at the decoder: it must never
// panic and must either error or return a message that re-marshals to the
// same bytes.
func TestFuzzDecoder(t *testing.T) {
	f := func(data []byte) bool {
		m, err := wire.Unmarshal(data, testL)
		if err != nil {
			return true
		}
		back, err := wire.Marshal(m)
		return err == nil && string(back) == string(data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestEncodedSizeTracksAccounting: the semantic SizeBits accounting must
// be an honest proxy for real encoded bytes (within framing slack).
func TestEncodedSizeTracksAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	idxBits := segproto.IndexBits(testL)
	for trial := 0; trial < 100; trial++ {
		n := rng.Intn(1000) + 1
		vals := randBits(rng, n)
		set := intset.FromRange(0, n)
		m := &crashk.Resp1{Phase: 1, Indices: set, Values: vals, IdxBits: idxBits}
		raw, err := wire.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		encodedBits := len(raw) * 8
		accounted := m.SizeBits()
		// Accounted size has a 64-bit header and per-range costs; real
		// encoding adds ≤ ~200 bits of framing.
		if encodedBits > accounted+256 {
			t.Fatalf("n=%d: encoded %d bits ≫ accounted %d", n, encodedBits, accounted)
		}
	}
}

// TestQuickSegValueRoundTrip round-trips random segment values.
func TestQuickSegValueRoundTrip(t *testing.T) {
	f := func(cycle, seg uint8, bits []bool) bool {
		m := &segproto.SegValue{
			Cycle:   int(cycle)%8 + 1,
			Seg:     int(seg),
			Values:  bitarray.FromBools(bits),
			IdxBits: segproto.IndexBits(testL),
		}
		raw, err := wire.Marshal(m)
		if err != nil {
			return false
		}
		got, err := wire.Unmarshal(raw, testL)
		if err != nil {
			return false
		}
		sv, ok := got.(*segproto.SegValue)
		return ok && sv.Cycle == m.Cycle && sv.Seg == m.Seg && sv.Values.Equal(m.Values)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
