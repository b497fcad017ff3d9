package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/intset"
	"repro/internal/protocols/crashk"
)

// The set codec against a model. modelWriteSet and modelReadSet are the
// set encoding of SPEC.md §2.1 written from its definition: a closure over
// ForEachRange on one side, one binary.Uvarint call a value on the other,
// with no one-byte or eight-gap fast path. They are the definition of the
// bytes; reader.set and writer.set must agree with them everywhere except
// on the inputs the decoder refuses and the model still takes, which
// modelReadSet reports.

func modelWriteSet(buf []byte, s intset.Set) []byte {
	buf = binary.AppendUvarint(buf, uint64(s.RangeCount()))
	prevEnd := -1
	s.ForEachRange(func(lo, hi int) {
		if hi-lo > 1 {
			buf = append(buf, 0)
			buf = binary.AppendUvarint(buf, uint64(hi-lo-2))
		}
		buf = binary.AppendUvarint(buf, uint64(lo-prevEnd))
		prevEnd = hi
	})
	return buf
}

// lenient says why a byte string the model decodes is not one the encoder
// can have written.
type lenient struct {
	gapZero bool // a range after the first starts where the last one ended
	padded  bool // the count, a length or a gap varint ends in a zero byte
}

func modelReadSet(buf []byte) (set intset.Set, rest []byte, why lenient, err error) {
	uvarint := func() uint64 {
		v, k := binary.Uvarint(buf)
		if err != nil || k <= 0 {
			err = ErrTruncated
			return 0
		}
		if k > 1 && buf[k-1] == 0 {
			why.padded = true
		}
		buf = buf[k:]
		return v
	}
	n64 := uvarint()
	if err != nil || n64 > maxItems || n64 > uint64(len(buf)) {
		return intset.Set{}, nil, why, ErrTruncated
	}
	var b intset.Builder
	prevEnd := -1
	for i := 0; i < int(n64); i++ {
		length := uint64(1)
		if len(buf) > 0 && buf[0] == 0 {
			buf = buf[1:]
			if length = 2 + uvarint(); length < 2 || length > maxIndex {
				err = ErrTruncated
			}
		}
		gap := uvarint()
		if err != nil || gap > maxIndex || (gap == 0 && i == 0) {
			return intset.Set{}, nil, why, ErrTruncated
		}
		lo := prevEnd + int(gap)
		hi := lo + int(length)
		if hi > maxIndex {
			return intset.Set{}, nil, why, ErrTruncated
		}
		if gap == 0 {
			why.gapZero = true
		}
		b.AddRange(lo, hi)
		prevEnd = hi
	}
	return b.Set(), buf, why, nil
}

// requireSameDecode holds reader.set to the model on one byte string.
func requireSameDecode(t *testing.T, data []byte) (accepted bool) {
	t.Helper()
	want, wantRest, why, wantErr := modelReadSet(data)
	r := &reader{buf: data}
	got := r.set()
	switch {
	case wantErr != nil || why.gapZero || why.padded:
		if r.err == nil {
			t.Fatalf("% x: decoded to %v; the model says err=%v gapZero=%v padded=%v", data, got, wantErr, why.gapZero, why.padded)
		}
	case r.err != nil:
		t.Fatalf("% x: refused (%v); the model decodes %v", data, r.err, want)
	case !slices.Equal(got.Ranges(), want.Ranges()):
		t.Fatalf("% x: decoded to %v, the model to %v", data, got, want)
	case !bytes.Equal(r.buf, wantRest):
		t.Fatalf("% x: %d bytes left, the model leaves %d", data, len(r.buf), len(wantRest))
	}
	if r.err != nil && !errors.Is(r.err, ErrTruncated) {
		t.Fatalf("% x: err = %v, want ErrTruncated", data, r.err)
	}
	return r.err == nil
}

// step draws a gap or a length: mostly small, often on one of the varint
// width seams, rarely large.
func step(rng *rand.Rand) int {
	switch rng.Intn(10) {
	case 0:
		return 126 + rng.Intn(4) // 127 | 128: one byte or two
	case 1:
		return 16382 + rng.Intn(4) // 16,383 | 16,384: two bytes or three
	case 2:
		return 1 + rng.Intn(1<<21)
	default:
		return 1 + rng.Intn(33)
	}
}

// randomSets covers the shapes crashk sends (one block; about one range a
// bit) and the codec's own seams.
func randomSets(rng *rand.Rand) []intset.Set {
	sets := []intset.Set{
		{},
		intset.FromRange(0, 1),
		intset.FromRange(0, maxIndex),
		intset.FromRange(maxIndex-1, maxIndex),
		intset.FromRange(127, 254),
		intset.FromRange(128, 255),
		intset.FromSorted([]int{0, maxIndex - 1}),
	}
	for trial := 0; trial < 300; trial++ {
		var b intset.Builder
		x := rng.Intn(3) * rng.Intn(200) // Lo = 0 a third of the time
		n := rng.Intn(60)
		if trial%50 == 0 {
			n = 3000
		}
		for i := 0; i < n; i++ {
			var length int
			switch trial % 3 {
			case 0: // one range per bit, small gaps: phase ≥ 2
				length = 1
			case 1: // dense: long runs, gaps of one
				length = 1 + rng.Intn(5000)
			default:
				length = step(rng)
			}
			if x+length > maxIndex {
				break
			}
			b.AddRange(x, x+length)
			if trial%3 == 1 {
				x += length + 1
			} else {
				x += length + step(rng)
			}
		}
		if trial%25 == 0 && x < maxIndex-1 {
			b.AddRange(maxIndex-1, maxIndex) // Hi on the bound
		}
		sets = append(sets, b.Set())
	}
	return sets
}

// TestSetEncoderMatchesModel: byte for byte, and through MarshalAppend's
// buffer contract (appended, nothing before it touched).
func TestSetEncoderMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, s := range randomSets(rng) {
		prefix := []byte{0xAA, 0xBB}
		w := writer{buf: append([]byte(nil), prefix...)}
		w.set(s)
		if want := modelWriteSet(prefix, s); !bytes.Equal(w.buf, want) {
			t.Fatalf("%d ranges from %v: encoded\n% x, the model\n% x", s.RangeCount(), firstRange(s), w.buf, want)
		}
		// And back, through both decoders, at every cut: a cut set is never
		// a set, the whole one is the one encoded.
		enc := w.buf[len(prefix):]
		stride := 1
		if len(enc) > 400 {
			stride = 1 + len(enc)/97
		}
		for cut := 0; cut < len(enc); cut += stride {
			if requireSameDecode(t, enc[:cut]) {
				t.Fatalf("%v cut at %d of %d bytes still decodes", s, cut, len(enc))
			}
		}
		if !requireSameDecode(t, enc) {
			t.Fatalf("%d ranges from %v: own encoding refused", s.RangeCount(), firstRange(s))
		}
		r := &reader{buf: enc}
		if got := r.set(); !slices.Equal(got.Ranges(), s.Ranges()) {
			t.Fatalf("round trip of %d ranges from %v changed the set", s.RangeCount(), firstRange(s))
		}
	}
}

func firstRange(s intset.Set) string {
	if s.Empty() {
		return "{}"
	}
	r := s.Ranges()[0]
	return fmt.Sprintf("[%d,%d)", r.Lo, r.Hi)
}

// TestSetDecoderMatchesModelOnBytes: random byte strings — raw, and shaped
// like sets so that most get past the count — decode alike or fail alike.
func TestSetDecoderMatchesModelOnBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	accepted, refusedStrict := 0, 0
	for trial := 0; trial < 60000; trial++ {
		data := make([]byte, rng.Intn(40))
		for i := range data {
			switch {
			case trial%2 == 0:
				data[i] = byte(rng.Intn(256))
			case rng.Intn(8) == 0:
				data[i] = byte(0x80 + rng.Intn(128))
			case rng.Intn(12) == 0:
				data[i] = 0
			default:
				data[i] = byte(1 + rng.Intn(127))
			}
		}
		if trial%2 == 1 && len(data) > 0 {
			data[0] = byte(rng.Intn(len(data))) // a count the bytes can hold
		}
		_, _, why, err := modelReadSet(data)
		if err == nil && (why.gapZero || why.padded) {
			refusedStrict++
		}
		if requireSameDecode(t, data) {
			accepted++
		}
	}
	if accepted < 5000 || refusedStrict < 500 {
		t.Fatalf("%d strings decoded and %d were refused for strictness alone: the strings do not exercise the decoder", accepted, refusedStrict)
	}
}

// req1Frame is a Req1 of phase 1 whose set is the given bytes.
func req1Frame(set ...byte) []byte { return append([]byte{tagCrashkReq1, 1}, set...) }

// TestSetCodecSeams walks the decoder's edges by hand, through Unmarshal.
func TestSetCodecSeams(t *testing.T) {
	top := binary.AppendUvarint(nil, maxIndex) // a first gap that lands one below the bound
	escape := func(extra uint64, gap ...byte) []byte {
		return append(append([]byte{1, 0}, binary.AppendUvarint(nil, extra)...), gap...)
	}
	for _, c := range []struct {
		name string
		set  []byte
		want string // "" = ErrTruncated
	}{
		{"empty set", []byte{0}, "{}"},
		{"first range at index 0", []byte{1, 1}, "{0}"},
		{"one-byte gap 0x7f", []byte{1, 0x7f}, "{126}"},
		{"two-byte gap", []byte{1, 0x80, 0x01}, "{127}"},
		{"escape, one-byte length and gap", []byte{1, 0, 0x7d, 0x7f}, "{126-252}"},
		{"escape, two-byte length", []byte{1, 0, 0x80, 0x01, 1}, "{0-129}"},
		{"escape, two-byte length and gap", []byte{1, 0, 0x80, 0x01, 0x80, 0x01}, "{127-256}"},
		{"one-index range after an escape", []byte{2, 0, 0, 1, 2}, "{0-1,4}"},
		{"escape after a one-index range", []byte{2, 1, 0, 0, 2}, "{0,3-4}"},
		{"two-byte gap after a one-byte one", []byte{2, 1, 0x80, 0x01}, "{0,129}"},
		{"count 2, one byte left", []byte{2, 5}, ""},
		{"count 1, nothing left", []byte{1}, ""},
		{"0x00 as the last byte", []byte{1, 0}, ""},
		{"escape and length, no gap", []byte{1, 0, 3}, ""},
		{"buffer ends inside a varint", []byte{2, 0x80, 0x01, 0x80}, ""},
		{"gap 0 after an escape", []byte{1, 0, 0, 0}, ""},
		{"gap 0 after the first range", []byte{2, 1, 0, 0, 0}, ""},
		{"padded gap 0x80 0x00", []byte{1, 0x80, 0x00}, ""},
		{"padded gap 0x81 0x00", []byte{1, 0x81, 0x00}, ""},
		{"padded length", []byte{1, 0, 0x81, 0x00, 1}, ""},
		{"padded to three bytes", []byte{1, 0x81, 0x80, 0x00}, ""},
		{"Hi on the bound", append([]byte{1}, top...), fmt.Sprintf("{%d}", maxIndex-1)},
		{"Hi one past the bound", append([]byte{1}, binary.AppendUvarint(nil, maxIndex+1)...), ""},
		{"escape to the bound", escape(maxIndex-2, 1), fmt.Sprintf("{0-%d}", maxIndex-1)},
		{"escape one past the bound", escape(maxIndex-1, 1), ""},
		{"escape length of 2^64-1 wraps when two is added", escape(1<<64-1, 1), ""},
		{"gap of 2^63", append([]byte{1}, binary.AppendUvarint(nil, 1<<63)...), ""},
		{"gap of 2^64-1", append([]byte{2, 1}, binary.AppendUvarint(nil, 1<<64-1)...), ""},
		{"varint overflows", []byte{1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, ""},
	} {
		raw := req1Frame(c.set...)
		m, err := Unmarshal(raw, 4096)
		if c.want == "" {
			if !errors.Is(err, ErrTruncated) {
				t.Errorf("%s (% x): err = %v, want ErrTruncated", c.name, raw, err)
			}
			// Averaged, as in TestHostileSetCountSizesNoAllocation: the
			// counter is the process's, not this goroutine's.
			const runs = 50
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				_, _ = Unmarshal(raw, 4096)
			}
			runtime.ReadMemStats(&after)
			if perOp := (after.TotalAlloc - before.TotalAlloc) / runs; perOp >= 1024 {
				t.Errorf("%s: refusing allocated %d bytes, want < 1 KB", c.name, perOp)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s (% x): %v, want %s", c.name, raw, err, c.want)
			continue
		}
		if got := m.(*crashk.Req1).Indices.String(); got != c.want {
			t.Errorf("%s (% x): decoded %s, want %s", c.name, raw, got, c.want)
		}
		if back, _ := Marshal(m); !bytes.Equal(back, raw) {
			t.Errorf("%s: re-encoded to % x from % x", c.name, back, raw)
		}
	}
}

// TestUnmarshalIsLengthStrict: SPEC.md §2.1 — bytes after a whole message
// are an error. The second item of a Req2 shows it is the frame's end that
// is checked, not each set's.
func TestUnmarshalIsLengthStrict(t *testing.T) {
	req2, err := Marshal(&crashk.Req2{Phase: 2, IdxBits: 12, Items: []crashk.Req2Item{
		{Q: 1, Indices: intset.Hold(intset.FromRange(3, 9))}, {Q: 2, Indices: intset.Hold(intset.FromSorted([]int{1, 5}))},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, raw := range [][]byte{req1Frame(1, 0, 62, 1), req2, {tagCrashkFull, 8, 0, 0, 0, 0, 0, 0, 0, 0}, {tagJunk, 7}, {tagCrash1Who, 1, 2}} {
		if _, err := Unmarshal(raw, 4096); err != nil {
			t.Fatalf("% x: %v", raw, err)
		}
		for _, tail := range [][]byte{{0}, {0xDE, 0xAD}, raw} {
			if _, err := Unmarshal(append(append([]byte(nil), raw...), tail...), 4096); !errors.Is(err, ErrTruncated) {
				t.Errorf("% x followed by % x: err = %v, want ErrTruncated", raw, tail, err)
			}
		}
	}
}
