package netrt

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/bitarray"
	"repro/internal/merkle"
	"repro/internal/source"
)

// QPROOF payload, after the standard query header (encodeQueryHeader):
//
//	[1B flags][uvarint leafLo][uvarint leafHi]
//	[uvarint nbytes][bitarray bytes][uvarint count][count × 32B hashes]
//
// flags bit0 = refused (selective mirror declined; nothing follows it).
// The mirror's claimed root never rides the wire: the client verifies
// the span against the authoritative commitment it received via ROOT,
// so a stale mirror's self-consistent tree fails exactly like a forged
// path. See docs/SPEC.md §frames.

const qproofRefused byte = 0x01

// qproofMaxLeaf bounds decoded leaf indices against hostile frames; a
// legitimate tree over L ≤ maxFrame bits never has more leaves.
const qproofMaxLeaf = maxFrame

// fixtureMaxQuery bounds the indices a query header read by the fixture
// codec may name. The codec has no L to bound them by, and a run of any
// length costs a few bytes, so without a bound a five-byte header could
// make the round trip allocate gigabytes. The largest query the corpus or
// the benchmark's probe encodes has 2^18 indices.
const fixtureMaxQuery = 1 << 20

// encodeProofReply returns a QPROOF payload: hdr (the encoded query
// header) followed by the body for rep, in a buffer of its own sized once.
func encodeProofReply(hdr []byte, rep source.RangeReply) []byte {
	if rep.Refused {
		return append(append(make([]byte, 0, len(hdr)+1), hdr...), qproofRefused)
	}
	nbits := rep.Bits.EncodedLen()
	out := make([]byte, 0, len(hdr)+1+3*binary.MaxVarintLen64+nbits+rep.Proof.EncodedLen())
	out = append(append(out, hdr...), 0)
	out = binary.AppendUvarint(out, uint64(rep.LeafLo))
	out = binary.AppendUvarint(out, uint64(rep.LeafHi))
	out = binary.AppendUvarint(out, uint64(nbits))
	out = rep.Bits.AppendTo(out)
	return rep.Proof.AppendTo(out)
}

// Exported fixture codec: the conformance corpus (fixtures/frames.json)
// pins the socket encoding of the mirror-tier frames, so the marshal
// half and a strict decode/re-encode round trip are exported for
// internal/conformance. Nothing else should call these — the runtime
// paths use the unexported framing directly.

// MarshalRootFrame encodes a complete ROOT frame (header included):
// the hub's out-of-band publication of the authoritative commitment.
func MarshalRootFrame(root [merkle.HashBytes]byte) []byte {
	return appendFrame(nil, kRoot, 0, rawPayload(root[:]))
}

// MarshalProofFrame encodes a complete QPROOF frame: the query header
// echoing the request, then the proof-carrying body for rep.
func MarshalProofFrame(seq uint64, tag int, indices []int, rep source.RangeReply) []byte {
	return appendFrame(nil, kQProof, seq, rawPayload(encodeProofReply(encodeQueryHeader(tag, indices), rep)))
}

// MarshalQuerySrcFrame encodes a complete QUERYSRC frame: the
// verified-fallback query, payload-identical to QUERY.
func MarshalQuerySrcFrame(seq uint64, tag int, indices []int) []byte {
	return appendFrame(nil, kQuerySrc, seq, rawPayload(encodeQueryHeader(tag, indices)))
}

// RoundTripMirrorFrame strictly decodes one mirror-tier frame (ROOT,
// QPROOF, or QUERYSRC) and re-encodes it. The conformance fixtures
// require the result to be byte-identical to the input, so drift in
// either codec direction — or a non-canonical committed fixture —
// fails loudly.
func RoundTripMirrorFrame(data []byte) ([]byte, error) {
	r := bytes.NewReader(data)
	kind, seq, payload, err := readFrame(r)
	if err != nil {
		return nil, err
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("netrt: %d trailing bytes after %s frame", r.Len(), kindName(kind))
	}
	switch kind {
	case kRoot:
		if seq != 0 || len(payload) != merkle.HashBytes {
			return nil, fmt.Errorf("netrt: malformed ROOT frame (seq %d, %d payload bytes)", seq, len(payload))
		}
		var root [merkle.HashBytes]byte
		copy(root[:], payload)
		return MarshalRootFrame(root), nil
	case kQProof:
		tag, indices, hdrLen, ok := decodeQuery(nil, payload, fixtureMaxQuery)
		if !ok {
			return nil, fmt.Errorf("netrt: malformed QPROOF query header")
		}
		rep, ok := decodeProofReply(payload[hdrLen:])
		if !ok {
			return nil, fmt.Errorf("netrt: malformed QPROOF body")
		}
		return MarshalProofFrame(seq, tag, indices, rep), nil
	case kQuerySrc:
		tag, indices, hdrLen, ok := decodeQuery(nil, payload, fixtureMaxQuery)
		if !ok {
			return nil, fmt.Errorf("netrt: malformed QUERYSRC header")
		}
		if hdrLen != len(payload) {
			return nil, fmt.Errorf("netrt: trailing bytes in QUERYSRC payload")
		}
		return MarshalQuerySrcFrame(seq, tag, indices), nil
	default:
		return nil, fmt.Errorf("netrt: %s is not a mirror-tier frame", kindName(kind))
	}
}

// decodeProofReply decodes a QPROOF body. It performs only structural
// validation — the bits and proof are untrusted until Merkle
// verification; trailing bytes are rejected so a frame cannot smuggle
// extra data past the verifier.
func decodeProofReply(payload []byte) (rep source.RangeReply, ok bool) {
	if len(payload) < 1 {
		return rep, false
	}
	flags := payload[0]
	payload = payload[1:]
	if flags&qproofRefused != 0 {
		rep.Refused = true
		return rep, len(payload) == 0
	}
	lo, n := binary.Uvarint(payload)
	if n <= 0 || lo > qproofMaxLeaf {
		return rep, false
	}
	payload = payload[n:]
	hi, n := binary.Uvarint(payload)
	if n <= 0 || hi > qproofMaxLeaf || hi <= lo {
		return rep, false
	}
	payload = payload[n:]
	nb, n := binary.Uvarint(payload)
	if n <= 0 || nb > uint64(len(payload[n:])) {
		return rep, false
	}
	payload = payload[n:]
	bits, err := bitarray.FromBytes(payload[:nb])
	if err != nil {
		return rep, false
	}
	proof, rest, pok := merkle.DecodeProof(payload[nb:])
	if !pok || len(rest) != 0 {
		return rep, false
	}
	rep.LeafLo, rep.LeafHi = int(lo), int(hi)
	rep.Bits, rep.Proof = bits, proof
	return rep, true
}
