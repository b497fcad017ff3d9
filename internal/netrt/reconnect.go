package netrt

import (
	"encoding/binary"
	"math/rand"
	"time"

	"repro/internal/hashmix"
	"repro/internal/qplane"
)

// This file holds the resilience primitives both endpoints use to survive
// a FaultPlan: the retransmit outbox (fair-loss link → reliable link),
// receiver-side dedup, capped-exponential reconnect backoff, and the
// wire state of the client's pending queries.

// Resilience tunes the retry/reconnect behavior of the runtime. The zero
// value selects defaults (see withDefaults); fields are only knobs — the
// mechanisms are always on, they just never fire on a clean network.
type Resilience struct {
	// QueryTimeout is how long the client waits for the reply to a sent
	// source query before the attempt fails as a lost reply
	// (source.KindTimeout) and the query plane rules on it. Default 500ms.
	QueryTimeout time.Duration
	// ReconnectBase/ReconnectMax shape the capped exponential backoff
	// between redial attempts (±50% jitter). Defaults 25ms / 1s.
	ReconnectBase time.Duration
	ReconnectMax  time.Duration
	// ReconnectAttempts bounds consecutive failed redials before a
	// client gives up. Default 12.
	ReconnectAttempts int
	// RTO is the retransmission timeout for unacked reliable frames.
	// Default 150ms.
	RTO time.Duration
}

func (r Resilience) withDefaults() Resilience {
	if r.QueryTimeout <= 0 {
		r.QueryTimeout = 500 * time.Millisecond
	}
	if r.ReconnectBase <= 0 {
		r.ReconnectBase = 25 * time.Millisecond
	}
	if r.ReconnectMax <= 0 {
		r.ReconnectMax = time.Second
	}
	if r.ReconnectAttempts <= 0 {
		r.ReconnectAttempts = 12
	}
	if r.RTO <= 0 {
		r.RTO = 150 * time.Millisecond
	}
	return r
}

// backoffDelay returns the capped exponential delay before redial
// `attempt` (0-based), jittered to ±50% so flapped peers do not redial in
// lockstep.
func backoffDelay(rng *rand.Rand, attempt int, base, max time.Duration) time.Duration {
	d := base << uint(min(attempt, 20))
	if d > max || d <= 0 {
		d = max
	}
	return d/2 + time.Duration(rng.Int63n(int64(d)))
}

// outFrame is one sent-but-unacked reliable frame. Its body may be shared
// with other entries (a broadcast's) and is never written to.
type outFrame struct {
	seq     uint64
	kind    byte
	p       framePayload
	sentAt  time.Time // zero means "due now" (never written, or replaying)
	attempt int
}

// outbox holds the reliable stream's unacked frames for retransmission.
// Frames stay until cumulatively acked; push assigns monotonic sequence
// numbers starting at 1. It is the stream's send queue too (take).
type outbox struct {
	// frames[head:] are the unacked frames in seq order. An ack pops frames
	// off the front by advancing head, and push slides the rest down to
	// reuse that space once it is half the slice.
	frames  []outFrame
	head    int
	nextSeq uint64
	// acked is the highest cumulative ack received, and repeats the number
	// of acks since that repeated it (see ack).
	acked   uint64
	repeats int
	// fresh counts the frames at the back never taken; marked, frames
	// marked due since the last full scan.
	fresh  int
	marked bool
}

func (o *outbox) push(kind byte, p framePayload) {
	if len(o.frames) == cap(o.frames) && o.head > 0 && o.head >= len(o.frames)/2 {
		n := copy(o.frames, o.frames[o.head:])
		clear(o.frames[n:])
		o.frames, o.head = o.frames[:n], 0
	}
	o.nextSeq++
	o.fresh++
	o.frames = append(o.frames, outFrame{seq: o.nextSeq, kind: kind, p: p})
}

// unacked is the frames not yet covered by a cumulative ack, oldest first.
func (o *outbox) unacked() []outFrame { return o.frames[o.head:] }

// ackTo drops every frame with seq ≤ v (cumulative ack).
func (o *outbox) ackTo(v uint64) {
	live := o.unacked()
	i := 0
	for i < len(live) && live[i].seq <= v {
		i++
	}
	clear(live[:i]) // release payloads
	o.head += i
	o.fresh = min(o.fresh, len(live)-i)
	if o.head == len(o.frames) {
		o.frames, o.head = o.frames[:0], 0
	}
}

// ack applies the receiver's cumulative ack v, fast retransmit included:
// the receiver acks every frame it reads, so an ack that repeats the last
// one means a frame arrived while the oldest unacked one has not. The
// third repeat while frames are unacked marks that oldest frame due now
// and reports true, so the sender pumps instead of waiting out the RTO. A
// higher ack resets the count.
func (o *outbox) ack(v uint64) (fast bool) {
	if v > o.acked {
		o.acked, o.repeats = v, 0
		o.ackTo(v)
		return false
	}
	if v < o.acked || o.empty() {
		return false
	}
	o.repeats++
	if o.repeats != 3 {
		return false
	}
	o.frames[o.head].sentAt = time.Time{}
	o.marked = true
	return true
}

func (o *outbox) empty() bool { return o.head == len(o.frames) }

// base returns the stream position the receiver is known to hold: every
// seq ≤ base is either acked (dropped from the outbox) or was never
// pushed. A resuming receiver restarts its dedup watermark here.
func (o *outbox) base() uint64 {
	if o.empty() {
		return o.nextSeq
	}
	return o.frames[o.head].seq - 1
}

// resumeAt restarts an empty outbox so its next push is numbered base+1,
// continuing a predecessor incarnation's stream without reusing seqs the
// receiver has already admitted.
func (o *outbox) resumeAt(base uint64) { o.nextSeq, o.acked = base, base }

// take marks the frames due at now as sent now and appends copies of them
// to dst: the frames never taken, those marked due (a zero sentAt), and,
// with scan, every frame last sent before cutoff.
func (o *outbox) take(dst []outFrame, now, cutoff time.Time, scan bool) []outFrame {
	live := o.unacked()
	if !scan && !o.marked {
		live = live[len(live)-o.fresh:]
	}
	for i := range live {
		f := &live[i]
		if f.sentAt.IsZero() || f.sentAt.Before(cutoff) {
			f.sentAt = now
			f.attempt++
			dst = append(dst, *f)
		}
	}
	o.fresh, o.marked = 0, false
	return dst
}

// markAllDue schedules every unacked frame for immediate retransmission
// (used after a reconnect: in-flight frames on the old connection may be
// lost).
func (o *outbox) markAllDue() {
	live := o.unacked()
	for i := range live {
		live[i].sentAt = time.Time{}
	}
	o.marked = true
}

// dedupReliable admits each sequence number of a retransmitted-until-acked
// stream exactly once. Memory stays bounded because the sender retransmits
// every unacked frame: gaps below the contiguous watermark always fill, so
// the ahead set only holds transient reorderings.
type dedupReliable struct {
	contig uint64 // every seq ≤ contig has been admitted
	ahead  map[uint64]bool
}

func (d *dedupReliable) admit(seq uint64) bool {
	if seq == d.contig+1 && len(d.ahead) == 0 {
		d.contig = seq // in order, nothing held ahead: the common case
		return true
	}
	if seq == 0 || seq <= d.contig || d.ahead[seq] {
		return false
	}
	if d.ahead == nil {
		d.ahead = make(map[uint64]bool)
	}
	d.ahead[seq] = true
	for d.ahead[d.contig+1] {
		d.contig++
		delete(d.ahead, d.contig)
	}
	return true
}

// cumAck is the cumulative acknowledgment to report to the sender.
func (d *dedupReliable) cumAck() uint64 { return d.contig }

// fastForward advances the contiguity watermark over every admitted
// out-of-order frame, clears them, and returns the result. Used when the
// sender's incarnation died (churn crash): frames in the receive gaps
// below the returned watermark can never arrive — they are the crashed
// incarnation's lost sends — so the successor must number strictly above
// it or its fresh frames would be mistaken for duplicates.
func (d *dedupReliable) fastForward() uint64 {
	for s := range d.ahead {
		if s > d.contig {
			d.contig = s
		}
	}
	d.ahead = nil
	return d.contig
}

// resumeAt restarts the dedup at a sender-supplied watermark (the resume
// handshake): everything ≤ contig counts as already seen.
func (d *dedupReliable) resumeAt(contig uint64) {
	d.contig = contig
	d.ahead = nil
}

// qkey identifies one logical source query for reply matching: the tag
// plus a hash of the QUERY header's bytes (SPEC §2.3: a retry is the
// identical QUERY frame), so concurrent same-tag queries with different
// indices keep separate retry state.
type qkey struct {
	tag int
	h   uint64
}

// qkeyOfHeader keys a query by its encoded header: the client hashes the
// payload it encoded and, for a reply, the header bytes the reply echoes,
// so no index list is built to match a query.
// Eight header bytes cost one Mix, which is a bijection: headers of one
// length that differ in a single byte always get different keys. The words
// go round four lanes because one Mix must finish before the next on its
// lane can start, and a whole-array header is 32,768 of them.
func qkeyOfHeader(tag int, hdr []byte) qkey {
	lane := [4]uint64{0x9E3779B97F4A7C15 ^ uint64(len(hdr)), 1, 2, 3}
	for ; len(hdr) >= 32; hdr = hdr[32:] {
		lane[0] = hashmix.Mix(lane[0] ^ binary.LittleEndian.Uint64(hdr))
		lane[1] = hashmix.Mix(lane[1] ^ binary.LittleEndian.Uint64(hdr[8:]))
		lane[2] = hashmix.Mix(lane[2] ^ binary.LittleEndian.Uint64(hdr[16:]))
		lane[3] = hashmix.Mix(lane[3] ^ binary.LittleEndian.Uint64(hdr[24:]))
	}
	var tail [32]byte
	copy(tail[:], hdr)
	h := uint64(0)
	for i, l := range lane {
		h = hashmix.Mix(h ^ hashmix.Mix(l^binary.LittleEndian.Uint64(tail[8*i:])))
	}
	return qkey{tag: tag, h: h}
}

// pendingQuery is one call of the query plane awaiting its reply, with
// its wire state. The reply is built from the call, never from the
// indices a reply frame claims.
type pendingQuery struct {
	call    *qplane.Call
	payload []byte // encoded header of call.Fetch, re-sent verbatim on retry
	key     qkey   // qkeyOfHeader of payload
	// kind is the frame kind the call (re-)issues as: kQuery on the
	// mirror path, flipped to kQuerySrc once a proof fails so every
	// retry goes authoritative.
	kind  byte
	state qstate
	// deadline is when a sent call counts as silent, or when a backed-off
	// one is due for admission.
	deadline time.Time
}

// qstate is where a pending call stands with the query plane.
type qstate uint8

const (
	sent    qstate = iota // on the wire, a reply owed
	backoff               // failed; the plane admits it again at its deadline
	parked                // held by the plane behind the open breaker
)
