package netrt

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"time"
)

// Frame I/O. Every connection of the runtime — the hub's, the client's, the
// load generator's — is a frameConn, and a frame costs about one system call
// in each direction: frames are read through a per-connection buffer, so a
// run of frames that arrived together shares one read, and an installed
// connection's one writer goroutine sends all it owes in one vectored write
// (writeFrames). No read loop ever waits on a write. A frame's bytes are
// allocated once per trip: a frame read lies in a buffer the connection
// keeps until its next read, and a frame waiting to be sent holds its
// payload as a framePayload, whose body several frames may share. See
// docs/RUNTIMES.md "Frame I/O".
//
// Frame format v2 (v1 had no sequence number):
//
//	[4B length][1B kind][uvarint seq][payload]
//
// length is big-endian and covers kind + seq + payload. seq is the
// sender's monotonic sequence number within one of its streams (see
// docs/RUNTIMES.md); control frames (hello/ack/ping/reject) carry seq 0.
//
// Payloads:
//
//	hello:  uvarint peerID
//	msg:    uvarint to/from, then a wire-encoded protocol message
//	bcast:  uvarint k, then a wire-encoded protocol message (client → hub
//	        only): a broadcast to the first k peers in id order, the
//	        sender skipped; the hub relays it as k MSGs
//	query:  the query header (its grammar is above encodeQueryHeader):
//	        tag, count, and the index list as steps, a run or a repeat one
//	        escape
//	qreply: same header, then length-prefixed bitarray bytes
//	done:   length-prefixed output bitarray bytes
//	ack:    uvarint cumulative seq (highest contiguous received)
//	ping:   empty (heartbeat; refreshes the receiver's idle deadline)
//	reject: empty (hub refuses this connection permanently)
//	qerr:   query header, then 1 byte source failure kind (source.Kind)

// Frame kinds.
const (
	kHello byte = iota + 1
	kMsg
	kQuery
	kQReply
	kDone
	kAck
	kPing
	kReject
	// kQErr reports an injected source failure for one query: the hub
	// refused the fetch (outage, rate limit, transient) and tells the
	// client actively instead of leaving it to the silence deadline. It
	// rides the hub's reliable stream like QREPLY.
	kQErr
	// kRoot publishes the authoritative Merkle root (32 bytes) to a
	// client of a mirrored run. The hub pushes it right after HELLO on
	// every connection, so TCP ordering guarantees the client holds the
	// root before any QPROOF reply arrives on that link. Control frame:
	// seq 0, idempotent, never charged into Q (out-of-band commitment).
	kRoot
	// kQProof is the mirror tier's proof-carrying reply to a QUERY: the
	// span bits of the covering leaf range plus the Merkle path claimed
	// to authenticate them. Nothing in it is trusted — the client
	// verifies against the kRoot commitment and falls back to QUERYSRC
	// on failure. Rides the hub's reliable stream like QREPLY.
	kQProof
	// kQuerySrc is the verified-fallback query: same payload as QUERY,
	// but the hub answers it from the authoritative source tier
	// (bypassing the mirror fleet) with a plain QREPLY/QERR.
	kQuerySrc
	// kResume answers a resume-flagged HELLO from a rejoined churn peer
	// (the flag byte trails the uvarint id; old hubs ignore it). Payload:
	// uvarint send base — the hub has processed everything ≤ it from the
	// peer's previous incarnations, so the fresh outbox numbers from
	// base+1 — then uvarint ack base, below which the hub's own reliable
	// stream retains nothing. Control frame: seq 0, guaranteed first on
	// the connection; the resuming client discards every frame until it
	// arrives (the hub retransmits every unacked one).
	kResume
	// kBcast is a client's broadcast, sent once: the message's recipients
	// are the first k peers in id order, the sender skipped. The hub admits
	// and acks it like a MSG and relays it to each recipient as a MSG, all
	// of them holding one copy of the body. Numbered, client → hub only.
	kBcast

	// kLast is the highest frame kind: per-kind tables are sized by it.
	kLast = kBcast
)

// kindNames names the frame kinds for debug output, metrics and timeout
// reports.
var kindNames = [kLast + 1]string{kHello: "HELLO", kMsg: "MSG", kQuery: "QUERY",
	kQReply: "QREPLY", kDone: "DONE", kAck: "ACK", kPing: "PING", kReject: "REJECT",
	kQErr: "QERR", kRoot: "ROOT", kQProof: "QPROOF", kQuerySrc: "QUERYSRC",
	kResume: "RESUME", kBcast: "BCAST"}

// kindName renders a frame kind.
func kindName(k byte) string {
	if k <= kLast && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", k)
}

// maxFrame bounds a frame's size (hostile or buggy peers).
const maxFrame = 64 << 20

// coalesceMax is the largest payload that frameBatch copies next to its
// header; a larger one is written from where it lies.
const coalesceMax = 4 << 10

// readBufSize sizes a connection's read buffer. A body that does not fit is
// read straight into its destination (bufio.Reader does that).
const readBufSize = 16 << 10

// keepFrame bounds the buffer a connection keeps for the frames it reads: a
// frame of up to keepFrame bytes after the length is read into it, a larger
// one into an allocation of its own.
const keepFrame = 64 << 10

// eagerFrame is how much of a frame's announced size readFrame allocates
// before any of it has arrived; the rest is allocated as it is read.
const eagerFrame = 1 << 20

// frameConn is one connection's frame I/O: its read buffers, and the state
// of its one writer. It lives exactly as long as nc does, so bytes buffered
// by one reader of the connection (the hello or resume handshake) are there
// for the next (the serve loop), and two values are the same connection iff
// the pointers are equal.
type frameConn struct {
	nc net.Conn
	// idle, when positive, is the silence a reader tolerates: the read
	// deadline is armed whenever the buffer has run dry and the socket is
	// about to be read. Zero leaves the deadline to the owner.
	idle time.Duration
	r    *bufio.Reader
	// kept holds the frame read last, when it fits in keepFrame bytes. It
	// starts at a size every control frame fits in and grows to the
	// largest such frame the connection has read.
	kept []byte
	// indices is the hub's decode buffer for the index lists of the QUERY
	// and QUERYSRC frames read from the connection, reused from query to
	// query by its serve loop alone.
	indices []int

	// wake (one slot) starts a pass of the connection's writer. owed is
	// what the pass sends ahead of the owner's outbox, in order: RESUME,
	// ROOT, one ACK per admitted frame (stream.ack counts repeats), pings,
	// copies the fault plan held back. retx asks for an outbox rescan
	// (link.take). The owner's mutex guards both.
	wake chan struct{}
	owed []outFrame
	retx bool
}

// owe has the writer's next pass send a frame (owner's mutex held).
func (fc *frameConn) owe(kind byte, seq uint64, p framePayload) {
	fc.owed = append(fc.owed, outFrame{kind: kind, seq: seq, p: p})
	fc.poke()
}

// poke starts a pass of the connection's writer, if one is not pending.
func (fc *frameConn) poke() {
	select {
	case fc.wake <- struct{}{}:
	default:
	}
}

// writeLoop is the connection's one writer: a pass per poke, until a pass
// reports false or stop closes.
func (fc *frameConn) writeLoop(stop <-chan struct{}, pass func() bool) {
	for {
		select {
		case <-stop:
			return
		case <-fc.wake:
		}
		if !pass() {
			return
		}
	}
}

func newFrameConn(conn net.Conn, idle time.Duration) *frameConn {
	fc := &frameConn{nc: conn, idle: idle, kept: make([]byte, 512), wake: make(chan struct{}, 1)}
	fc.r = bufio.NewReaderSize(socketReader{fc}, readBufSize)
	return fc
}

// framePayload is a payload as a frame being sent holds it: an optional
// leading uvarint kept as a number — a MSG's peer id, an ACK's cumulative
// seq, a DONE's output length — and then a body that is shared and never
// written to. A broadcast's outbox entries share one body, and an ACK has
// none, so neither costs an allocation per frame. appendFrame puts the
// number on the wire.
type framePayload struct {
	num    uint64
	hasNum bool
	body   []byte
}

// rawPayload is a payload that is all body.
func rawPayload(body []byte) framePayload { return framePayload{body: body} }

// numPayload is a payload that is num's uvarint, then body.
func numPayload(num uint64, body []byte) framePayload {
	return framePayload{num: num, hasNum: true, body: body}
}

// len is the payload's length on the wire.
func (p framePayload) len() int {
	if !p.hasNum {
		return len(p.body)
	}
	var b [binary.MaxVarintLen64]byte
	return binary.PutUvarint(b[:], p.num) + len(p.body)
}

// socketReader is the read buffer's source.
type socketReader struct{ fc *frameConn }

func (s socketReader) Read(p []byte) (int, error) {
	if s.fc.idle > 0 {
		s.fc.nc.SetReadDeadline(time.Now().Add(s.fc.idle))
	}
	return s.fc.nc.Read(p)
}

// readFrame returns the connection's next frame, from the buffer when it is
// already there. The payload is valid until the next readFrame on the
// connection, which may reuse its bytes: whatever outlives that is copied.
func (fc *frameConn) readFrame() (kind byte, seq uint64, payload []byte, err error) {
	kind, seq, payload, fc.kept, err = readFrameInto(fc.r, fc.kept)
	return kind, seq, payload, err
}

// frameBatch is frames encoded for one write: headers and small payloads
// in scratch, each larger body a buffer of its own.
type frameBatch struct {
	scratch []byte
	mark    int // scratch[mark:] is not in bufs yet
	bufs    net.Buffers
	frames  int
}

// add encodes one frame (byte for byte what appendFrame produces) into b. A
// frame over the size limit is refused.
func (b *frameBatch) add(kind byte, seq uint64, p framePayload) error {
	size := p.len()
	if size > maxFrame-16 {
		return fmt.Errorf("netrt: frame too large: %d", size)
	}
	b.frames++
	if size <= coalesceMax {
		b.scratch = appendFrame(b.scratch, kind, seq, p)
		return nil
	}
	// The frame without its body, its length made to cover the body.
	at := len(b.scratch)
	b.scratch = appendFrame(b.scratch, kind, seq, framePayload{num: p.num, hasNum: p.hasNum})
	binary.BigEndian.PutUint32(b.scratch[at:], uint32(len(b.scratch)-at-4+len(p.body)))
	b.bufs = append(b.bufs, b.scratch[b.mark:], p.body)
	b.mark = len(b.scratch)
	return nil
}

// writeFrames writes b's frames in one vectored write and empties b: the
// one write primitive, for the connection's writer, the HELLO/REJECT
// handshake before it starts, and the load generator's raw clients.
func (fc *frameConn) writeFrames(b *frameBatch) error {
	if b.mark < len(b.scratch) {
		b.bufs = append(b.bufs, b.scratch[b.mark:])
	}
	all := b.bufs
	var err error
	if len(all) == 1 {
		_, err = fc.nc.Write(all[0])
	} else {
		_, err = b.bufs.WriteTo(fc.nc)
	}
	clear(all) // release the bodies
	b.scratch, b.mark, b.bufs, b.frames = b.scratch[:0], 0, all[:0], 0
	return err
}

// writeHandshake writes a HELLO or REJECT before the writer starts.
func writeHandshake(fc *frameConn, kind byte, p framePayload) error {
	var b frameBatch
	if err := b.add(kind, 0, p); err != nil {
		return err
	}
	return fc.writeFrames(&b)
}

func (fc *frameConn) Close() error { return fc.nc.Close() }

// appendFrame appends one encoded frame to dst and returns the extended
// slice: the one definition of a frame's bytes.
func appendFrame(dst []byte, kind byte, seq uint64, p framePayload) []byte {
	at := len(dst)
	dst = append(dst, 0, 0, 0, 0, kind)
	dst = binary.AppendUvarint(dst, seq)
	if p.hasNum {
		dst = binary.AppendUvarint(dst, p.num)
	}
	dst = append(dst, p.body...)
	binary.BigEndian.PutUint32(dst[at:], uint32(len(dst)-at-4))
	return dst
}

// readFrame reads one frame into an allocation of its own. It accepts any
// io.Reader so tests, fuzz targets and the fixture codec can drive it from
// byte slices; the runtime reads through a frameConn.
func readFrame(r io.Reader) (kind byte, seq uint64, payload []byte, err error) {
	kind, seq, payload, _, err = readFrameInto(r, nil)
	return kind, seq, payload, err
}

// readFrameInto reads one frame from r. A frame of up to keepFrame bytes is
// read into kept, which is grown if it is short and returned for the next
// call; with kept nil, and for a larger frame, the frame gets an allocation
// of its own. That allocation is exact up to eagerFrame bytes; a larger
// frame is allocated as its bytes arrive, so a header alone cannot make the
// reader allocate what it announces.
func readFrameInto(r io.Reader, kept []byte) (kind byte, seq uint64, payload, keep []byte, err error) {
	hdr := kept
	if hdr == nil {
		hdr = make([]byte, 4)
	}
	if _, err := io.ReadFull(r, hdr[:4]); err != nil {
		return 0, 0, nil, kept, err
	}
	size := int(binary.BigEndian.Uint32(hdr))
	if size < 2 || size > maxFrame {
		return 0, 0, nil, kept, fmt.Errorf("netrt: bad frame size %d", size)
	}
	var buf []byte
	if kept != nil && size <= keepFrame {
		if len(kept) < size {
			kept = make([]byte, min(max(size, 2*len(kept)), keepFrame))
		}
		buf = kept[:size]
	} else {
		buf = make([]byte, min(size, eagerFrame))
	}
	for got := 0; ; {
		if _, err := io.ReadFull(r, buf[got:]); err != nil {
			return 0, 0, nil, kept, err
		}
		if got = len(buf); got == size {
			break
		}
		buf = append(buf, make([]byte, min(got, size-got))...)
	}
	seq, n := binary.Uvarint(buf[1:])
	if n <= 0 {
		return 0, 0, nil, kept, fmt.Errorf("netrt: bad frame seq")
	}
	return buf[0], seq, buf[1+n:], kept, nil
}

// The query header opens QUERY and QUERYSRC, and every QREPLY, QPROOF and
// QERR echoes it byte for byte:
//
//	varint tag (zig-zag), uvarint count, then count indices: the first as
//	a zig-zag varint, each later one as a step from the one before —
//	  0x00, uvarint k   an escape: k ≥ 3 is a run of k indices, each one
//	                    more than the one before; k = 0 repeats the one
//	                    before
//	  any other byte    starts the zig-zag varint of a step (never 0)
//
// A zero byte would be a step of 0, which distinct neighbours never take,
// so it is free to escape. Every stretch of three or more +1 steps is one
// escape, as long as the stretch; every varint is minimal. A list has
// exactly one encoding, and the readers refuse any other: a header is its
// query's key (qkeyOfHeader), and a run of [0, L) costs a few bytes.
const (
	queryEscape = 0x00
	// minRun is the fewest +1 steps in a row an escape stands for.
	minRun = 3
)

// encodeQueryHeader encodes a query header in a buffer of its own, sized
// exactly. A header of up to 64 bytes — any run of [0, L), for one — is
// first encoded on the stack.
func encodeQueryHeader(tag int, indices []int) []byte {
	var scratch [64]byte
	return bytes.Clone(appendQueryHeader(scratch[:0], tag, indices))
}

// appendQueryHeader appends the query header of (tag, indices) to dst.
func appendQueryHeader(dst []byte, tag int, indices []int) []byte {
	dst = binary.AppendVarint(dst, int64(tag))
	dst = binary.AppendUvarint(dst, uint64(len(indices)))
	if len(indices) == 0 {
		return dst
	}
	dst = binary.AppendVarint(dst, int64(indices[0]))
	for i := 1; i < len(indices); {
		prev := indices[i-1]
		switch d := indices[i] - prev; {
		case d == 0:
			dst = append(dst, queryEscape, 0)
			i++
		// Three +1 steps add up to 3: the sum screens for a run before
		// each of its steps is checked.
		case i+2 < len(indices) && indices[i+2]-prev == minRun &&
			plusOne(prev, indices[i]) && plusOne(indices[i], indices[i+1]) && plusOne(indices[i+1], indices[i+2]):
			k, last := minRun, indices[i+2]
			for _, v := range indices[i+minRun:] {
				if !plusOne(last, v) {
					break
				}
				k, last = k+1, v
			}
			dst = binary.AppendUvarint(append(dst, queryEscape), uint64(k))
			i += k
		case d >= -64 && d < 64:
			dst = append(dst, byte(d<<1)^byte(d>>63)) // a one-byte step
			i++
		default:
			dst = binary.AppendVarint(dst, int64(d))
			i++
		}
	}
	return dst
}

// plusOne reports whether b is one above a.
func plusOne(a, b int) bool { return b > a && b-a == 1 }

// uvarint reads a minimal uvarint at p[pos:]: the one form the encoders
// write, so a value has one encoding on the wire.
func uvarint(p []byte, pos int) (v uint64, next int, ok bool) {
	v, n := binary.Uvarint(p[pos:])
	if n <= 0 || (n > 1 && p[pos+n-1] == 0) {
		return 0, 0, false
	}
	return v, pos + n, true
}

// varint reads a minimal zig-zag varint at p[pos:].
func varint(p []byte, pos int) (v int64, next int, ok bool) {
	u, next, ok := uvarint(p, pos)
	return int64(u>>1) ^ -int64(u&1), next, ok
}

// queryPrelude reads a query header's tag and index count; pos is where
// the index list starts. maxCount bounds the count: a legitimate query
// never asks for more than L indices, and a run of them costs a few bytes,
// so only the bound keeps a hostile header from announcing more.
func queryPrelude(payload []byte, maxCount int) (tag int, count uint64, pos int, ok bool) {
	t64, pos, ok := varint(payload, 0)
	if !ok {
		return 0, 0, 0, false
	}
	count, pos, ok = uvarint(payload, pos)
	if !ok || count > uint64(max(maxCount, 0)) {
		return 0, 0, 0, false
	}
	return int(t64), count, pos, true
}

// decodeQuery decodes a query header into its index list; hdrLen is the
// number of payload bytes the header occupies. The list lies in dst's
// backing array when that is large enough, in a new one when not; a
// refused header allocates nothing. Only a caller that must hand the list
// on (the hub's source tier) decodes; the rest use scanQuery.
func decodeQuery(dst []int, payload []byte, maxCount int) (tag int, indices []int, hdrLen int, ok bool) {
	_, count, _, ok := queryPrelude(payload, maxCount)
	if !ok {
		return 0, nil, 0, false
	}
	if uint64(cap(dst)) < count {
		if _, _, _, _, _, ok := scanQuery(payload, maxCount); !ok {
			return 0, nil, 0, false
		}
		dst = make([]int, count)
	}
	indices = dst[:count]
	tag, _, hdrLen, _, _, ok = walkQuery(payload, maxCount, indices)
	if !ok {
		return 0, nil, 0, false
	}
	return tag, indices, hdrLen, true
}

// scanQuery walks a query header without building its index list, a run
// in one step. It accepts exactly the payloads decodeQuery accepts and
// agrees with it on tag, count and header length; lo and hi are the
// smallest and largest index (0, 0 for an empty list).
func scanQuery(payload []byte, maxCount int) (tag, count, hdrLen, lo, hi int, ok bool) {
	return walkQuery(payload, maxCount, nil)
}

// walkQuery reads a query header, and writes its indices to out unless out
// is nil (decodeQuery sizes it to the count). It refuses a list that is not
// in its one encoding, that names more indices than its count or fewer,
// or whose indices leave the int64 range.
func walkQuery(payload []byte, maxCount int, out []int) (tag, count, hdrLen, lo, hi int, ok bool) {
	tag, cnt, pos, ok := queryPrelude(payload, maxCount)
	if !ok {
		return 0, 0, 0, 0, 0, false
	}
	if cnt == 0 {
		return tag, 0, pos, 0, 0, true
	}
	prev, pos, ok := varint(payload, pos)
	if !ok {
		return 0, 0, 0, 0, 0, false
	}
	if out != nil {
		out[0] = int(prev)
	}
	low, high := prev, prev
	// plus is how many bare +1 steps in a row end at prev, or minRun when
	// a run does: either way, what may follow is limited.
	plus := 0
	for i := uint64(1); i < cnt; {
		if pos >= len(payload) {
			return 0, 0, 0, 0, 0, false
		}
		var d int64
		switch b := payload[pos]; {
		case b == queryEscape:
			k, next, ok := uvarint(payload, pos+1)
			switch {
			case !ok:
				return 0, 0, 0, 0, 0, false
			case k == 0: // a repeat
				if out != nil {
					out[i] = int(prev)
				}
				pos, plus, i = next, 0, i+1
				continue
			case k < minRun || k > cnt-i || plus > 0 || prev > math.MaxInt64-int64(k):
				return 0, 0, 0, 0, 0, false
			}
			if out != nil {
				run := out[i : i+k]
				for j := range run {
					run[j] = int(prev) + 1 + j
				}
			}
			prev += int64(k)
			pos, plus, i, high = next, minRun, i+k, max(high, prev)
			continue
		case b < 0x80:
			// A one-byte step, of at most 64 either way: nearly every step
			// of a real list is read in line.
			d = int64(b>>1) ^ -int64(b&1)
			pos++
		default:
			if d, pos, ok = varint(payload, pos); !ok {
				return 0, 0, 0, 0, 0, false
			}
		}
		if sum := prev + d; (prev^sum)&(d^sum) < 0 {
			return 0, 0, 0, 0, 0, false // past the int64 range
		}
		if plus++; d != 1 {
			plus = 0
		}
		if plus >= minRun {
			return 0, 0, 0, 0, 0, false // the third bare +1 in a row, or one next to a run
		}
		prev += d
		if out != nil {
			out[i] = int(prev)
		}
		low, high, i = min(low, prev), max(high, prev), i+1
	}
	return tag, int(cnt), pos, int(low), int(high), true
}
