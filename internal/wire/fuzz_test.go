package wire_test

import (
	"bytes"
	"testing"

	"repro/internal/bitarray"
	"repro/internal/intset"
	"repro/internal/protocols/crashk"
	"repro/internal/protocols/segproto"
	"repro/internal/wire"
)

// FuzzUnmarshal hammers the decoder with arbitrary bytes: it must never
// panic, and anything it accepts must re-marshal to the very bytes it came
// from (SPEC.md §2.1: Marshal(Unmarshal(b)) == b).
func FuzzUnmarshal(f *testing.F) {
	// Seed corpus: valid frames of several types plus junk.
	seedMsgs := []interface{ SizeBits() int }{
		&crashk.Req1{Phase: 1, Indices: intset.FromRange(0, 64), IdxBits: 12},
		&crashk.Req2{Phase: 2, IdxBits: 12, Items: []crashk.Req2Item{
			{Q: 1, Indices: intset.Hold(intset.FromSorted([]int{3, 9, 10, 200, 4000}))},
			{Q: 4, Indices: intset.Hold(intset.FromRange(130, 400))},
		}},
		&crashk.Full{Values: bitarray.New(128)},
		&segproto.SegValue{Cycle: 1, Seg: 0, Values: bitarray.New(32), IdxBits: 12},
	}
	for _, m := range seedMsgs {
		raw, err := wire.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00, 0x01})
	f.Add(wire.HostileSetCount())
	// What the decoder is strict about: bytes after a whole message, a
	// range that starts where the last one ended, a padded varint.
	req1, err := wire.Marshal(seedMsgs[0])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(req1, 0xDE))
	f.Add([]byte{req1[0], 1, 2, 1, 0, 0, 0})
	f.Add([]byte{req1[0], 1, 1, 0x80, 0x00})
	// Frames the decoder must refuse because they would re-encode to other
	// bytes — a me-neither byte of 2, an empty bitarray field — and a bit
	// count whose word count wraps.
	f.Add([]byte{4, 2, 1, 5, 2, 0, 0})
	f.Add([]byte{4, 2, 1, 5, 2, 0, 8, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{8, 1, 7, 2, 0, 8, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{5, 0})
	f.Add([]byte{5, 16, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0, 0, 0, 0, 0})
	// A Resp2 whose peers do not ascend.
	f.Add([]byte{4, 2, 2, 9, 1, 5, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := wire.Unmarshal(data, 4096)
		if err != nil {
			return
		}
		back, err := wire.Marshal(m)
		if err != nil {
			t.Fatalf("decoded message failed to re-marshal: %v", err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("% x decoded, and re-encoded to % x", data, back)
		}
	})
}

// FuzzRoundTrip drives structured inputs through encode/decode/encode:
// the second encoding must equal the first (canonical form).
func FuzzRoundTrip(f *testing.F) {
	f.Add(1, 0, []byte{1, 2, 3})
	f.Add(3, 7, []byte{})
	f.Fuzz(func(t *testing.T, cycle, seg int, bits []byte) {
		if cycle < 1 || cycle > 1<<20 || seg < 0 || seg > 1<<20 || len(bits) > 1<<12 {
			return
		}
		vals := bitarray.New(len(bits))
		for i, b := range bits {
			vals.Set(i, b&1 == 1)
		}
		m := &segproto.SegValue{Cycle: cycle, Seg: seg, Values: vals, IdxBits: 12}
		raw1, err := wire.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := wire.Unmarshal(raw1, 4096)
		if err != nil {
			t.Fatal(err)
		}
		raw2, err := wire.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if string(raw1) != string(raw2) {
			t.Fatal("non-canonical round trip")
		}
	})
}
