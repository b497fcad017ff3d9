package netrt

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The fuzz targets cover the two decode paths that consume bytes from the
// network: the framing layer and the query header codec. The invariant
// under fuzz is "no panic, no lie": a parse either fails cleanly or
// returns values consistent with the input.

func FuzzReadFrame(f *testing.F) {
	// A well-formed frame, plus the malformed shapes the hostile-frame
	// regression test exercises.
	f.Add(appendFrame(nil, kMsg, 7, rawPayload([]byte("payload"))))
	f.Add([]byte{0, 0, 0, 0})                  // length below minimum
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})      // length over maxFrame
	f.Add([]byte{0, 0, 0, 2, kMsg, 0x80})      // truncated seq uvarint
	f.Add([]byte{0, 0, 0, 5, kQuery, 1, 2, 3}) // length longer than data
	f.Add([]byte{0, 0, 16, 0, kDone, 1})       // large length, no body
	// BCASTs: to three peers, to none, and with k cut short.
	f.Add(appendFrame(nil, kBcast, 3, rawPayload(append([]byte{3}, "payload"...))))
	f.Add(appendFrame(nil, kBcast, 4, rawPayload(append([]byte{0}, "payload"...))))
	f.Add(appendFrame(nil, kBcast, 5, rawPayload([]byte{0x80})))
	// Runs of frames, each shorter than the one before: a connection reads
	// the later ones into the bytes of the earlier ones.
	f.Add(appendFrame(appendFrame(appendFrame(nil, kMsg, 9, rawPayload(bytes.Repeat([]byte{7}, 40))),
		kAck, 0, numPayload(300, nil)), kPing, 0, framePayload{}))
	f.Add(appendFrame(appendFrame(nil, kQReply, 1, rawPayload(bytes.Repeat([]byte{0xEE}, keepFrame))),
		kDone, 2, rawPayload([]byte{1, 2})))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Read as a run of frames through one connection, the input must
		// come out frame by frame as the plain reader makes it: a frame read
		// into the connection's kept buffer never shows bytes of an earlier,
		// longer one.
		plain, conn := bytes.NewReader(data), newFrameConn(&recConn{src: bytes.NewReader(data)}, 0)
		for i := 0; ; i++ {
			pk, ps, pp, perr := readFrame(plain)
			ck, cs, cp, cerr := conn.readFrame()
			if (perr == nil) != (cerr == nil) || pk != ck || ps != cs || !bytes.Equal(pp, cp) {
				t.Fatalf("frame %d: connection (%d,%d,%x,%v), plain reader (%d,%d,%x,%v)", i, ck, cs, cp, cerr, pk, ps, pp, perr)
			}
			if perr != nil {
				break
			}
		}

		kind, seq, payload, err := readFrame(bytes.NewReader(data))
		// A connection's reader that gets the same bytes in two socket
		// reads, cut at a point the input picks, must say the same.
		cut := 0
		for _, b := range data {
			cut = (cut*31 + int(b)) % (len(data) + 1)
		}
		halves := io.MultiReader(bytes.NewReader(data[:cut]), bytes.NewReader(data[cut:]))
		bk, bs, bp, berr := newFrameConn(&recConn{src: halves}, 0).readFrame()
		if (berr == nil) != (err == nil) || bk != kind || bs != seq || !bytes.Equal(bp, payload) {
			t.Fatalf("cut at %d of %d: buffered reader (%d,%d,%x,%v), plain reader (%d,%d,%x,%v)",
				cut, len(data), bk, bs, bp, berr, kind, seq, payload, err)
		}
		if err != nil {
			return
		}
		// A successful parse must be a faithful slice of the input.
		if len(payload) > len(data) {
			t.Fatalf("payload longer than input: %d > %d", len(payload), len(data))
		}
		// And must round-trip through writeFrame.
		out := &recConn{}
		if err := newFrameConn(out, 0).writeFrame(kind, seq, rawPayload(payload)); err != nil {
			t.Fatalf("re-encode of parsed frame failed: %v", err)
		}
		k2, s2, p2, err := readFrame(bytes.NewReader(out.wrote))
		if err != nil || k2 != kind || s2 != seq || !bytes.Equal(p2, payload) {
			t.Fatalf("round-trip mismatch: (%d,%d,%x) → (%d,%d,%x) err=%v",
				kind, seq, payload, k2, s2, p2, err)
		}
	})
}

// queryHeaderSeed is one header shape the scan/decode equivalence must
// hold on, and whether the readers accept it.
type queryHeaderSeed struct {
	name string
	hdr  []byte
	ok   bool
}

// queryHeaderSeeds are the header shapes the scan/decode equivalence must
// hold on: the long run that is naive's whole-array query, the lists with
// no run at all, and the malformed ones each rejection branch exists for.
func queryHeaderSeeds() []queryHeaderSeed {
	run := make([]int, 262144)
	alt := make([]int, 300)
	desc := make([]int, 300)
	for i := range run {
		run[i] = i
	}
	for i := range alt {
		alt[i] = 1000 + i%2 // alternating +1 / −1
		desc[i] = 5000 - 3*i
	}
	return append([]queryHeaderSeed{
		{"short", encodeQueryHeader(0, []int{0, 1, 2}), true},
		{"unsorted", encodeQueryHeader(-5, []int{100, 50, 200}), true},
		{"count 2^40", []byte{0x00, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20}, false},
		{"truncated tag", []byte{0x80}, false},
		{"naive", encodeQueryHeader(0, run), true},
		{"alternating", encodeQueryHeader(7, alt), true},
		{"descending", encodeQueryHeader(-1, desc), true},
		{"repeats", encodeQueryHeader(3, []int{9, 9, 9, 10, 10, 2, 2}), true},
		{"runs and repeats", encodeQueryHeader(2, []int{4, 5, 6, 7, 7, 8, 9, 10, 11, 40, 41, 42}), true},
		{"non-minimal varints", []byte{0x82, 0x00, 0x83, 0x00, 0x82, 0x80, 0x00, 0x02, 0x84, 0x00}, false}, // tag 1, count 3, +1 +1 +2
		{"non-minimal run length", []byte{0x00, 0x04, 0x00, queryEscape, 0x83, 0x00}, false},
		{"truncated mid-varint", []byte{0x00, 0x03, 0x02, 0x02, 0x80}, false},
		{"count > maxCount", binary.AppendUvarint([]byte{0x00}, fuzzMaxCount+1), false},
		{"delta overflows 64 bits", []byte{0x00, 0x02, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02, 0x02}, false},
		// Indices that would leave the int64 range: by a run, and by a step.
		{"run past MaxInt64", append(binary.AppendVarint([]byte{0x00, 17}, math.MaxInt64-3), queryEscape, 16), false},
		{"step past MaxInt64", binary.AppendVarint(binary.AppendVarint([]byte{0x00, 2}, math.MaxInt64-3), 4), false},
	}, hostileQueryHeaders()...)
}

// hostileQueryHeaders are headers that a few bytes make announce much: each
// must be refused, and refused without an allocation. Their count is under
// fuzzMaxCount but for the first, which claims one index more.
func hostileQueryHeaders() []queryHeaderSeed {
	hdr := func(count uint64, list ...byte) []byte {
		return append(binary.AppendUvarint([]byte{0x00}, count), list...)
	}
	return []queryHeaderSeed{
		{"5 bytes claiming L+1", hdr(fuzzMaxCount+1, 0x00), false},
		{"run overshoots the count", hdr(10, 0x00, queryEscape, 10), false},
		{"runs sum short of the count", hdr(fuzzMaxCount, 0x00, queryEscape, 5, 0x04, queryEscape, 99), false},
		{"run of 1", hdr(3, 0x00, queryEscape, 1, 0x04), false},
		{"run of 2", hdr(3, 0x00, queryEscape, 2), false},
		{"three bare +1 steps", hdr(4, 0x00, stepPlusOne, stepPlusOne, stepPlusOne), false},
		{"+1 step before a run", hdr(5, 0x00, stepPlusOne, queryEscape, 3), false},
		{"+1 step after a run", hdr(5, 0x00, queryEscape, 3, stepPlusOne), false},
		{"run after a run", hdr(7, 0x00, queryEscape, 3, queryEscape, 3), false},
	}
}

// stepPlusOne is a +1 step written bare: the zig-zag varint of 1.
const stepPlusOne = 0x02

// fuzzMaxCount is the index bound the fuzz target decodes under: naive's
// whole-array query at the benchmark's L must pass it.
const fuzzMaxCount = 1 << 18

func FuzzDecodeQuery(f *testing.F) {
	for _, seed := range queryHeaderSeeds() {
		f.Add(seed.hdr)
	}
	kept := make([]int, 0, fuzzMaxCount)
	f.Fuzz(func(t *testing.T, data []byte) {
		tag, indices, hdrLen, ok := decodeQuery(nil, data, fuzzMaxCount)
		// Decoding into a buffer with room, as the hub does, tells the
		// same story.
		ktag, kidx, khdr, kok := decodeQuery(kept, data, fuzzMaxCount)
		if kok != ok || ok && (ktag != tag || khdr != hdrLen || !slices.Equal(kidx, indices)) {
			t.Fatalf("decode into a kept buffer (%v, tag %d, hdr %d) != decode (%v, tag %d, hdr %d)", kok, ktag, khdr, ok, tag, hdrLen)
		}
		// scanQuery accepts iff decodeQuery does, and tells the same story.
		stag, count, shdr, lo, hi, sok := scanQuery(data, fuzzMaxCount)
		if sok != ok {
			t.Fatalf("decode ok=%v, scan ok=%v", ok, sok)
		}
		if !ok {
			return
		}
		wantLo, wantHi := 0, 0
		for i, idx := range indices {
			if i == 0 || idx < wantLo {
				wantLo = idx
			}
			if i == 0 || idx > wantHi {
				wantHi = idx
			}
		}
		if stag != tag || count != len(indices) || shdr != hdrLen || lo != wantLo || hi != wantHi {
			t.Fatalf("scan (tag %d, count %d, hdr %d, [%d,%d]) != decode (tag %d, count %d, hdr %d, [%d,%d])",
				stag, count, shdr, lo, hi, tag, len(indices), hdrLen, wantLo, wantHi)
		}
		if hdrLen > len(data) {
			t.Fatalf("header of %d bytes in %d bytes of input", hdrLen, len(data))
		}
		if len(indices) > fuzzMaxCount {
			t.Fatalf("decode accepted %d indices over the %d bound", len(indices), fuzzMaxCount)
		}
		// Bytes after the header are not the header's business.
		if _, _, h2, _, _, ok2 := scanQuery(data[:hdrLen], fuzzMaxCount); !ok2 || h2 != hdrLen {
			t.Fatalf("header alone scans to (%d, %v), want (%d, true)", h2, ok2, hdrLen)
		}
		// The readers accept exactly what the encoder emits: what was
		// decoded re-encodes to the header's own bytes.
		if enc := encodeQueryHeader(tag, indices); !bytes.Equal(enc, data[:hdrLen]) {
			t.Fatalf("(%d, %v) re-encodes to %x, not to its header %x", tag, indices, enc, data[:hdrLen])
		}
	})
}

// TestScanQuerySeeds runs the fuzz seeds' accept/reject expectations as a
// plain test, so the shapes the equivalence rests on are pinned by name.
func TestScanQuerySeeds(t *testing.T) {
	for _, seed := range queryHeaderSeeds() {
		_, indices, hdrLen, ok := decodeQuery(nil, seed.hdr, fuzzMaxCount)
		_, count, shdr, _, _, sok := scanQuery(seed.hdr, fuzzMaxCount)
		if ok != seed.ok || sok != seed.ok {
			t.Errorf("%s: decode ok=%v scan ok=%v, want %v", seed.name, ok, sok, seed.ok)
		}
		if ok && (count != len(indices) || shdr != hdrLen) {
			t.Errorf("%s: scan (%d, %d) != decode (%d, %d)", seed.name, count, shdr, len(indices), hdrLen)
		}
	}
}

// TestHostileQueryHeaders: a header whose few bytes announce more than
// they hold, or hold it in a second form, is refused by both readers
// without an allocation.
func TestHostileQueryHeaders(t *testing.T) {
	for _, seed := range hostileQueryHeaders() {
		if len(seed.hdr) > 10 {
			t.Errorf("%s: %d bytes, want a few", seed.name, len(seed.hdr))
		}
		var ok, sok bool
		allocs := testing.AllocsPerRun(20, func() {
			_, _, _, ok = decodeQuery(nil, seed.hdr, fuzzMaxCount)
			_, _, _, _, _, sok = scanQuery(seed.hdr, fuzzMaxCount)
		})
		if ok || sok {
			t.Errorf("%s: decode ok=%v scan ok=%v, want both refused", seed.name, ok, sok)
		}
		if allocs != 0 {
			t.Errorf("%s: refused with %v allocations, want 0", seed.name, allocs)
		}
	}
	// The fixture codec, which has no L, refuses a header past its bound.
	frame := appendFrame(nil, kQuerySrc, 1, rawPayload(append(binary.AppendUvarint([]byte{0x00}, fixtureMaxQuery+1), 0x00, queryEscape, 0x80, 0x80, 0x40)))
	if _, err := RoundTripMirrorFrame(frame); err == nil {
		t.Error("RoundTripMirrorFrame accepted a QUERYSRC of fixtureMaxQuery+1 indices")
	}
}

// stepQueryHeader is the header as it was before runs had an escape: a
// zig-zag varint step for every index after the first.
func stepQueryHeader(tag int, indices []int) []byte {
	out := binary.AppendVarint(nil, int64(tag))
	out = binary.AppendUvarint(out, uint64(len(indices)))
	prev := 0
	for _, idx := range indices {
		out = binary.AppendVarint(out, int64(idx-prev))
		prev = idx
	}
	return out
}

// TestQueryHeaderKeepsStepLists: a list with no three +1 steps in a row and
// no repeat encodes byte for byte as before runs had an escape, and a list
// with them encodes shorter.
func TestQueryHeaderKeepsStepLists(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		idx := make([]int, rng.Intn(64))
		plus := 0 // +1 steps in a row ending at the last index
		for i := range idx {
			for {
				step := rng.Intn(9) - 4
				if rng.Intn(8) == 0 {
					step = rng.Intn(1<<20) - 1<<19
				}
				if i == 0 {
					idx[i] = rng.Intn(1 << 16)
					break
				}
				if step == 0 || (step == 1 && plus == 2) {
					continue
				}
				if idx[i] = idx[i-1] + step; step == 1 {
					plus++
				} else {
					plus = 0
				}
				break
			}
		}
		tag := rng.Intn(200) - 100
		if got, want := encodeQueryHeader(tag, idx), stepQueryHeader(tag, idx); !bytes.Equal(got, want) {
			t.Fatalf("%v: encodes to %x, was %x", idx, got, want)
		}
		if len(idx) < 2 {
			continue
		}
		// Put a run or a repeat in: that list encodes otherwise.
		at := 1 + rng.Intn(len(idx)-1)
		grown := slices.Clone(idx[:at])
		if rng.Intn(2) == 0 {
			grown = append(grown, idx[at-1])
		} else {
			for k := 1; k <= 3+rng.Intn(30); k++ {
				grown = append(grown, idx[at-1]+k)
			}
		}
		grown = append(grown, idx[at:]...)
		if got := encodeQueryHeader(tag, grown); bytes.Equal(got, stepQueryHeader(tag, grown)) {
			t.Fatalf("%v: a run or repeat encodes as it did before", grown)
		}
	}
}

// TestQueryKeyOfHeader: equal headers get equal keys; changing any one
// byte, the length or the tag changes the key.
func TestQueryKeyOfHeader(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 16, 23, 300} {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = 17*i + i%3
		}
		hdr := encodeQueryHeader(4, idx)
		key := qkeyOfHeader(4, hdr)
		if key != qkeyOfHeader(4, append([]byte(nil), hdr...)) {
			t.Fatalf("n=%d: equal headers, different keys", n)
		}
		if key == qkeyOfHeader(5, hdr) {
			t.Errorf("n=%d: key ignores the tag", n)
		}
		if key == qkeyOfHeader(4, hdr[:len(hdr)-1]) || key == qkeyOfHeader(4, append(hdr[:len(hdr):len(hdr)], 0)) {
			t.Errorf("n=%d: key ignores the length", n)
		}
		for i := range hdr {
			mut := append([]byte(nil), hdr...)
			mut[i] ^= 0x40
			if key == qkeyOfHeader(4, mut) {
				t.Errorf("n=%d: key ignores byte %d", n, i)
			}
		}
	}
}

// TestQueryHeaderNoAllocs: matching a reply to its query builds nothing.
func TestQueryHeaderNoAllocs(t *testing.T) {
	run := make([]int, 4096)
	for i := range run {
		run[i] = i
	}
	hdr := encodeQueryHeader(0, run)
	if n := testing.AllocsPerRun(20, func() { scanQuery(hdr, len(run)) }); n != 0 {
		t.Errorf("scanQuery allocates %v times", n)
	}
	if n := testing.AllocsPerRun(20, func() { qkeyOfHeader(0, hdr) }); n != 0 {
		t.Errorf("qkeyOfHeader allocates %v times", n)
	}
}

// FuzzFrameRoundTrip drives the encoder with arbitrary (kind, seq,
// payload) triples: whatever writeFrame accepts, readFrame must return
// verbatim.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(byte(1), uint64(0), []byte{})
	f.Add(kMsg, uint64(1), []byte{0x01, 0x02})
	f.Add(kQReply, uint64(1<<40), bytes.Repeat([]byte{0xAB}, 300))
	f.Fuzz(func(t *testing.T, kind byte, seq uint64, payload []byte) {
		out := &recConn{}
		if err := newFrameConn(out, 0).writeFrame(kind, seq, rawPayload(payload)); err != nil {
			return // oversized payloads are rejected, which is fine
		}
		k, s, p, err := readFrame(bytes.NewReader(out.wrote))
		if err != nil {
			t.Fatalf("decode of encoded frame failed: %v", err)
		}
		if k != kind || s != seq || !bytes.Equal(p, payload) {
			t.Fatalf("round-trip mismatch: (%d,%d,%d bytes) → (%d,%d,%d bytes)",
				kind, seq, len(payload), k, s, len(p))
		}
	})
}

// TestDecodeQueryBounds pins the hostile-allocation guard: a count field
// above the bound is rejected before any allocation sized by it, and one
// at the bound is not.
func TestDecodeQueryBounds(t *testing.T) {
	huge := binary.AppendVarint(nil, 0)
	huge = binary.AppendUvarint(huge, 1<<40)
	if _, _, _, ok := decodeQuery(nil, huge, 1<<20); ok {
		t.Fatal("accepted count 2^40 with empty body")
	}
	if _, _, _, ok := decodeQuery(nil, encodeQueryHeader(1, []int{1, 2, 3}), 2); ok {
		t.Fatal("accepted 3 indices over maxCount 2")
	}
	if tag, idx, hdrLen, ok := decodeQuery(nil, encodeQueryHeader(1, []int{1, 2, 3}), 3); !ok || tag != 1 || len(idx) != 3 || hdrLen != 5 {
		t.Fatalf("rejected legitimate query: ok=%v tag=%d idx=%v", ok, tag, idx)
	}
}
