package netrt

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
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

// queryHeaderSeeds are the header shapes the scan/decode equivalence must
// hold on: the long run that is naive's whole-array query, the lists with
// no run at all, and the malformed ones each rejection branch exists for.
func queryHeaderSeeds() [][]byte {
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
	over := encodeQueryHeader(1, run[:100])
	return [][]byte{
		encodeQueryHeader(0, []int{0, 1, 2}),
		encodeQueryHeader(-5, []int{100, 50, 200}),
		{0x00, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20}, // count 2^40
		{0x80}, // truncated tag
		encodeQueryHeader(0, run),
		encodeQueryHeader(7, alt),
		encodeQueryHeader(-1, desc),
		encodeQueryHeader(3, []int{9, 9, 9, 10, 10, 2, 2}),                             // duplicates
		{0x82, 0x00, 0x83, 0x00, 0x82, 0x80, 0x00, 0x02, 0x84, 0x00},                   // non-minimal varints: tag 1, count 3, +1 +1 +2
		{0x00, 0x03, 0x02, 0x02, 0x80},                                                 // truncated mid-varint
		over[:50],                                                                      // count 100 > bytes left
		binary.AppendUvarint([]byte{0x00}, fuzzMaxCount+1),                             // count > maxCount
		{0x00, 0x02, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02, 0x02}, // delta overflows 64 bits
		// A run that wraps the index past MaxInt64: the extremes lie inside
		// a stretch of eight +1 steps.
		append(binary.AppendVarint([]byte{0x00, 17}, math.MaxInt64-3), bytes.Repeat([]byte{0x02}, 16)...),
	}
}

// fuzzMaxCount is the index bound the fuzz target decodes under: naive's
// whole-array query at the benchmark's L must pass it.
const fuzzMaxCount = 1 << 18

func FuzzDecodeQuery(f *testing.F) {
	for _, seed := range queryHeaderSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tag, indices, hdrLen, ok := decodeQuery(data, fuzzMaxCount)
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
		// Every accepted index costs at least one input byte, so the
		// count can never force an allocation larger than the frame.
		if len(indices) > len(data) {
			t.Fatalf("%d indices from %d bytes", len(indices), len(data))
		}
		// Bytes after the header are not the header's business.
		if _, _, h2, _, _, ok2 := scanQuery(data[:hdrLen], fuzzMaxCount); !ok2 || h2 != hdrLen {
			t.Fatalf("header alone scans to (%d, %v), want (%d, true)", h2, ok2, hdrLen)
		}
		// Whatever was decoded must survive a re-encode/re-decode cycle
		// (byte-prefix equality would be too strong: varint readers
		// accept non-minimal encodings like 0x80 0x00).
		enc := encodeQueryHeader(tag, indices)
		tag2, indices2, hdr2, ok2 := decodeQuery(enc, fuzzMaxCount)
		if !ok2 || tag2 != tag || len(indices2) != len(indices) || hdr2 != len(enc) {
			t.Fatalf("re-decode mismatch: (%d,%v) → (%d,%v,%d of %d,%v)", tag, indices, tag2, indices2, hdr2, len(enc), ok2)
		}
		for i := range indices {
			if indices2[i] != indices[i] {
				t.Fatalf("index %d changed: %d → %d", i, indices[i], indices2[i])
			}
		}
	})
}

// TestScanQuerySeeds runs the fuzz seeds' accept/reject expectations as a
// plain test, so the shapes the equivalence rests on are pinned by name.
func TestScanQuerySeeds(t *testing.T) {
	seeds := queryHeaderSeeds()
	wantOK := []bool{true, true, false, false, true, true, true, true, true, false, false, false, false, true}
	if len(wantOK) != len(seeds) {
		t.Fatalf("%d expectations for %d seeds", len(wantOK), len(seeds))
	}
	for i, seed := range seeds {
		_, indices, hdrLen, ok := decodeQuery(seed, fuzzMaxCount)
		_, count, shdr, _, _, sok := scanQuery(seed, fuzzMaxCount)
		if ok != wantOK[i] || sok != wantOK[i] {
			t.Errorf("seed %d: decode ok=%v scan ok=%v, want %v", i, ok, sok, wantOK[i])
		}
		if ok && (count != len(indices) || shdr != hdrLen) {
			t.Errorf("seed %d: scan (%d, %d) != decode (%d, %d)", i, count, shdr, len(indices), hdrLen)
		}
	}
	// The non-minimal seed decodes to what its minimal form does, under a
	// different key: a retry is the identical frame, not an equivalent one.
	tag, indices, _, _ := decodeQuery(seeds[8], fuzzMaxCount)
	if tag != 1 || len(indices) != 3 || indices[0] != 1 || indices[1] != 2 || indices[2] != 4 {
		t.Errorf("non-minimal seed decoded to tag %d indices %v", tag, indices)
	}
	if qkeyOfHeader(tag, seeds[8]) == qkeyOfHeader(tag, encodeQueryHeader(tag, indices)) {
		t.Error("non-minimal and minimal encodings share a key")
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
// claiming more indices than the payload could possibly hold must be
// rejected before any allocation sized by it.
func TestDecodeQueryBounds(t *testing.T) {
	huge := binary.AppendVarint(nil, 0)
	huge = binary.AppendUvarint(huge, 1<<40)
	if _, _, _, ok := decodeQuery(huge, 1<<20); ok {
		t.Fatal("accepted count 2^40 with empty body")
	}
	if _, _, _, ok := decodeQuery(encodeQueryHeader(1, []int{1, 2, 3}), 2); ok {
		t.Fatal("accepted 3 indices over maxCount 2")
	}
	if tag, idx, hdrLen, ok := decodeQuery(encodeQueryHeader(1, []int{1, 2, 3}), 3); !ok || tag != 1 || len(idx) != 3 || hdrLen != 5 {
		t.Fatalf("rejected legitimate query: ok=%v tag=%d idx=%v", ok, tag, idx)
	}
}
