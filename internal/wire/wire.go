// Package wire provides a compact binary encoding for every protocol
// message in the library. The simulation runtimes pass messages as Go
// values and account sizes semantically (sim.Message.SizeBits); this
// package is what turns them into actual bytes — used by the TCP runtime
// (package netrt) and by tests that check the semantic size accounting is
// honest (encoded length tracks SizeBits within a small framing overhead).
//
// Frame format (docs/SPEC.md §2.1): one type byte, then a type-specific
// payload built from unsigned varints (encoding/binary), length-prefixed
// bitarray payloads, and index sets encoded as a range count and then
// each coalesced range: a one-index range as its gap from the previous
// range's end, a longer one as a 0x00 byte, its length less two and its
// gap. The sets crashk sends from phase 2 on are nearly all one-index
// ranges with gaps below 0x80, one byte each. The set codec is intset's
// (AppendEncoding, Decode, Scan), used for every set field. Decoding is
// length-strict and accepts exactly what the encoder can emit, so
// Marshal(Unmarshal(b)) == b for every frame b that decodes.
//
// Every set is decoded into ranges except a crashk Req2 item's: its set is
// validated completely but held as its encoding (intset.Lazy), in a copy
// of the frame's bytes that the decoded message owns and never writes. A
// recipient rules nearly every item at its first range, so only the items
// it answers are ever unpacked.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/adversary"
	"repro/internal/bitarray"
	"repro/internal/intset"
	"repro/internal/protocols/committee"
	"repro/internal/protocols/crash1"
	"repro/internal/protocols/crashk"
	"repro/internal/protocols/segproto"
	"repro/internal/sim"
)

// Message type tags. Start at 1; 0 is reserved as invalid.
const (
	tagCrashkReq1 byte = iota + 1
	tagCrashkResp1
	tagCrashkReq2
	tagCrashkResp2
	tagCrashkFull
	tagCrash1Push
	tagCrash1Who
	tagCrash1Reply
	tagCommitteeReport
	tagSegValue
	tagJunk
)

// ErrUnknownType reports an unregistered message type.
var ErrUnknownType = errors.New("wire: unknown message type")

// ErrTruncated reports malformed or short input.
var ErrTruncated = errors.New("wire: truncated payload")

// Marshal encodes any registered protocol message.
func Marshal(m sim.Message) ([]byte, error) { return MarshalAppend(nil, m) }

// MarshalAppend encodes m appended to dst and returns the extended slice.
// It is the allocation-free encode path: with sufficient capacity in dst
// no allocation occurs (see the package alloc-budget tests), so the TCP
// runtime encodes straight into the one buffer its outbox retains.
func MarshalAppend(dst []byte, m sim.Message) ([]byte, error) {
	w := writer{buf: dst}
	switch v := m.(type) {
	case *crashk.Req1:
		w.byte(tagCrashkReq1)
		w.uvarint(uint64(v.Phase))
		w.set(v.Indices)
	case *crashk.Resp1:
		w.byte(tagCrashkResp1)
		w.uvarint(uint64(v.Phase))
		w.set(v.Indices)
		w.bits(v.Values)
	case *crashk.Req2:
		w.byte(tagCrashkReq2)
		w.uvarint(uint64(v.Phase))
		w.uvarint(uint64(len(v.Items)))
		for _, it := range v.Items {
			w.uvarint(uint64(it.Q))
			w.buf = it.Indices.AppendEncoding(w.buf)
		}
	case *crashk.Resp2:
		w.byte(tagCrashkResp2)
		w.uvarint(uint64(v.Phase))
		w.uvarint(uint64(len(v.Items) + v.MeNeither.Len()))
		// One list by peer: the supplied items and the me-neither peers
		// merged in increasing Q.
		items := v.Items
		for _, rg := range v.MeNeither.Ranges() {
			for q := int(rg.Lo); q < int(rg.Hi); q++ {
				for len(items) > 0 && int(items[0].Q) < q {
					w.resp2Item(items[0])
					items = items[1:]
				}
				w.uvarint(uint64(q))
				w.byte(1)
			}
		}
		for _, it := range items {
			w.resp2Item(it)
		}
	case *crashk.Full:
		w.byte(tagCrashkFull)
		w.bits(v.Values)
	case *crash1.Push:
		w.byte(tagCrash1Push)
		w.uvarint(uint64(v.Phase))
		w.set(v.Indices)
		w.bits(v.Values)
	case *crash1.WhoIsMissing:
		w.byte(tagCrash1Who)
		w.uvarint(uint64(v.Phase))
		w.uvarint(uint64(v.Missing))
	case *crash1.MissingReply:
		w.byte(tagCrash1Reply)
		w.uvarint(uint64(v.Phase))
		w.uvarint(uint64(v.About))
		if v.MeNeither {
			w.byte(1)
		} else {
			w.byte(0)
			w.set(v.Indices)
			w.bits(v.Values)
		}
	case *committee.Report:
		w.byte(tagCommitteeReport)
		w.uvarint(uint64(len(v.Indices)))
		prev := 0
		for _, idx := range v.Indices {
			w.uvarint(uint64(idx - prev)) // delta encoding
			prev = idx
		}
		w.bits(v.Bits)
	case *segproto.SegValue:
		w.byte(tagSegValue)
		w.uvarint(uint64(v.Cycle))
		w.uvarint(uint64(v.Seg))
		w.bits(v.Values)
	case *adversary.Junk:
		w.byte(tagJunk)
		w.uvarint(uint64(v.Bits))
	default:
		return nil, fmt.Errorf("%w: %T", ErrUnknownType, m)
	}
	return w.buf, nil
}

// Unmarshal decodes a frame produced by Marshal. L is the execution's
// input length, needed to restore size-accounting fields.
func Unmarshal(data []byte, L int) (sim.Message, error) {
	if len(data) == 0 {
		return nil, ErrTruncated
	}
	r := &reader{buf: data[1:]}
	idxBits := segproto.IndexBits(L)
	var m sim.Message
	switch data[0] {
	case tagCrashkReq1:
		v := &crashk.Req1{IdxBits: idxBits}
		v.Phase = int(r.uvarint())
		v.Indices = r.set()
		m = v
	case tagCrashkResp1:
		v := &crashk.Resp1{IdxBits: idxBits}
		v.Phase = int(r.uvarint())
		v.Indices = r.set()
		v.Values = r.bits()
		m = v
	case tagCrashkReq2:
		v := &crashk.Req2{IdxBits: idxBits}
		v.Phase = int(r.uvarint())
		v.Items = r.req2Items()
		m = v
	case tagCrashkResp2:
		// The list is split back into supplied items and me-neither peers;
		// a peer not strictly above the previous one would not merge back
		// into the same list.
		v := &crashk.Resp2{IdxBits: idxBits}
		v.Phase = int(r.uvarint())
		n := r.count()
		var neither intset.Builder
		prev := int64(-1)
		for i := 0; i < n && r.err == nil; i++ {
			q := r.uvarint()
			if q >= maxIndex || int64(q) <= prev {
				r.fail()
				break
			}
			prev = int64(q)
			if r.flag() {
				neither.Add(int(q))
				continue
			}
			it := crashk.Resp2Item{Q: sim.PeerID(q)}
			it.Indices = r.set()
			it.Values = r.bits()
			v.Items = append(v.Items, it)
		}
		v.MeNeither = neither.Set()
		m = v
	case tagCrashkFull:
		m = &crashk.Full{Values: r.bits()}
	case tagCrash1Push:
		v := &crash1.Push{IdxBits: idxBits}
		v.Phase = int(r.uvarint())
		v.Indices = r.set()
		v.Values = r.bits()
		m = v
	case tagCrash1Who:
		v := &crash1.WhoIsMissing{}
		v.Phase = int(r.uvarint())
		v.Missing = sim.PeerID(r.uvarint())
		m = v
	case tagCrash1Reply:
		v := &crash1.MissingReply{IdxBits: idxBits}
		v.Phase = int(r.uvarint())
		v.About = sim.PeerID(r.uvarint())
		if r.flag() {
			v.MeNeither = true
		} else {
			v.Indices = r.set()
			v.Values = r.bits()
		}
		m = v
	case tagCommitteeReport:
		v := &committee.Report{IdxBits: idxBits}
		n := r.count()
		prev := uint64(0)
		for i := 0; i < n && r.err == nil; i++ {
			prev += r.uvarint()
			v.Indices = append(v.Indices, int(prev))
		}
		v.Bits = r.bits()
		m = v
	case tagSegValue:
		v := &segproto.SegValue{IdxBits: idxBits}
		v.Cycle = int(r.uvarint())
		v.Seg = int(r.uvarint())
		v.Values = r.bits()
		m = v
	case tagJunk:
		m = &adversary.Junk{Bits: int(r.uvarint())}
	default:
		return nil, fmt.Errorf("%w: tag %d", ErrUnknownType, data[0])
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.buf) != 0 {
		return nil, ErrTruncated // trailing bytes: decoding is length-strict
	}
	return m, nil
}

// maxItems bounds decoded collection sizes against hostile frames.
const maxItems = 1 << 20

type writer struct{ buf []byte }

func (w *writer) byte(b byte)      { w.buf = append(w.buf, b) }
func (w *writer) uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

// noBits is what a nil array is sent as: the 0-bit array, which is what
// the receiver gets. An empty field is never written, so the decoder
// refuses one.
var noBits = bitarray.New(0)

func (w *writer) bits(a *bitarray.Array) {
	if a == nil {
		a = noBits
	}
	// Append the serialization directly instead of materializing a.Bytes()
	// into a temporary.
	w.uvarint(uint64(a.EncodedLen()))
	w.buf = a.AppendTo(w.buf)
}

// resp2Item writes a supplied item of a Resp2's list: peer, flag 0, set,
// values.
func (w *writer) resp2Item(it crashk.Resp2Item) {
	w.uvarint(uint64(it.Q))
	w.byte(0)
	w.set(it.Indices)
	w.bits(it.Values)
}

// set writes intset's set encoding.
func (w *writer) set(s intset.Set) { w.buf = intset.AppendEncoding(w.buf, s) }

type reader struct {
	buf []byte
	err error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = ErrTruncated
	}
}

func (r *reader) byte() byte {
	if r.err != nil || len(r.buf) == 0 {
		r.fail()
		return 0
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	return b
}

// uvarint reads a minimal varint: one padded with a zero last byte is
// refused, because the encoder would write it shorter.
func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := minimalUvarint(r.buf)
	if n == 0 {
		r.fail()
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// flag reads a flag byte, which is 0 or 1 and nothing else.
func (r *reader) flag() bool {
	b := r.byte()
	if b > 1 {
		r.fail()
	}
	return b == 1
}

// count reads a collection size, refusing one above maxItems before it is
// turned into an int.
func (r *reader) count() int {
	n := r.uvarint()
	if n > maxItems {
		r.fail()
		return 0
	}
	return int(n)
}

func (r *reader) bytesField() []byte {
	n := int(r.uvarint())
	if r.err != nil || n < 0 || n > len(r.buf) {
		r.fail()
		return nil
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

// bits decodes what writer.bits wrote and nothing else: the 8-byte bit
// count n, then exactly ⌈n/64⌉ words with no bit set past n. An empty
// field, a short or long one and a set padding bit would each re-encode to
// other bytes.
func (r *reader) bits() *bitarray.Array {
	raw := r.bytesField()
	if r.err != nil {
		return nil
	}
	if len(raw) < 8 || len(raw)%8 != 0 {
		r.fail()
		return nil
	}
	n := binary.LittleEndian.Uint64(raw)
	words := uint64(len(raw)/8 - 1)
	if n > 64*words || n+64 <= 64*words {
		r.fail()
		return nil
	}
	if tail := n % 64; tail != 0 && binary.LittleEndian.Uint64(raw[len(raw)-8:])>>tail != 0 {
		r.fail()
		return nil
	}
	a, err := bitarray.FromBytes(raw)
	if err != nil {
		r.fail()
		return nil
	}
	return a
}

// maxIndex bounds decoded index values: what an intset.Set can hold, so
// nothing the decoder lets through can fail to fit.
const maxIndex = intset.MaxIndex

// set decodes what writer.set wrote through intset.Decode, which accepts
// only what the encoder can emit, so a decoded set re-encodes to the bytes
// it came from.
func (r *reader) set() intset.Set {
	if r.err != nil {
		return intset.Set{}
	}
	s, n, ok := intset.Decode(r.buf)
	if !ok {
		r.fail()
		return intset.Set{}
	}
	r.buf = r.buf[n:]
	return s
}

// req2Items decodes a Req2's items, each set validated by intset.Scan and
// held as its encoding: a recipient mostly rules an item at its first
// range, and unpacks only the items it answers. The spans alias one copy
// of the rest of the frame, because the caller's buffer may be reused
// (netrt's is). An item takes at least two bytes, a peer and a set count,
// so a count the payload cannot hold is refused before it sizes anything.
func (r *reader) req2Items() []crashk.Req2Item {
	n := r.count()
	if r.err != nil || n > len(r.buf)/2 {
		r.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	r.buf = append([]byte(nil), r.buf...)
	spans := make([]intset.Span, n)
	items := make([]crashk.Req2Item, n)
	for i := range items {
		q := r.uvarint()
		if r.err != nil {
			return nil
		}
		sp, k, ok := intset.Scan(r.buf)
		if !ok {
			r.fail()
			return nil
		}
		r.buf = r.buf[k:]
		spans[i] = sp
		items[i] = crashk.Req2Item{Q: sim.PeerID(q), Indices: spans[i].Lazy()}
	}
	return items
}

// minimalUvarint is binary.Uvarint with every refusal reported as a width
// of 0: a short or overflowing encoding, and one padded with a zero last
// byte, which the encoder never writes.
func minimalUvarint(buf []byte) (v uint64, width int) {
	v, k := binary.Uvarint(buf)
	if k <= 0 || (k > 1 && buf[k-1] == 0) {
		return 0, 0
	}
	return v, k
}
