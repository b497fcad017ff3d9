package netrt

import (
	"encoding/binary"
	"errors"
	"time"
)

// This file holds the reliable link both ends of a socket run: the ARQ that
// turns a fair-loss network into the model's reliable links. A stream is
// the pure machine — sequence numbers, cumulative acks and the rule that
// reads them, retransmission, dedup and RESUME realignment — with no
// goroutine, clock or connection: the times it needs are its arguments. A
// link is that machine on the connection installed for it; hubPeer and
// client each embed one, under their own mutex.

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

// pop drops every frame with seq ≤ v.
func (o *outbox) pop(v uint64) {
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

// stream is one end of a reliable link as a pure machine: the outbox of
// the stream it sends, the dedup of the stream it receives, and the ack
// rule between them.
type stream struct {
	out  outbox
	recv dedupReliable
	// lastAck is the highest cumulative ack taken, and repeats the number
	// of acks since that repeated it (see ack).
	lastAck uint64
	repeats int
}

// ack applies the receiver's cumulative ack v, fast retransmit included:
// the receiver acks every frame it reads, so an ack that repeats the last
// one means a frame arrived while the oldest unacked one has not. The
// third repeat while frames are unacked marks that oldest frame due now
// and reports true, so the sender pumps instead of waiting out its
// retransmit cutoff. A higher ack resets the count. An ack is input from
// the far end: one above the highest seq pushed acks nothing.
func (s *stream) ack(v uint64) (fast bool) {
	o := &s.out
	switch {
	case v > o.nextSeq:
		return false
	case v > s.lastAck:
		s.lastAck, s.repeats = v, 0
		o.pop(v)
		return false
	case v < s.lastAck || o.empty():
		return false
	}
	s.repeats++
	if s.repeats != 3 {
		return false
	}
	o.frames[o.head].sentAt = time.Time{}
	o.marked = true
	return true
}

// reconnect marks every unacked frame due, since frames in flight on the
// old connection may be lost (the receiver's dedup absorbs any overlap),
// and returns the cumulative ack the new connection owes: none until the
// stream has admitted a frame.
func (s *stream) reconnect() (ack uint64, owed bool) {
	live := s.out.unacked()
	for i := range live {
		live[i].sentAt = time.Time{}
	}
	s.out.marked = true
	return s.recv.contig, s.recv.contig > 0
}

// resumeBody realigns the receive half for a rejoined sender and returns
// RESUME's body: the send base, above which the successor numbers its
// fresh stream — the receive watermark fast-forwarded over every
// out-of-order admission, since the gaps below them belonged to the dead
// incarnation and can never fill — and the ack base, where this end's own
// stream resumes retransmitting.
func (s *stream) resumeBody() []byte {
	body := binary.AppendUvarint(nil, s.recv.fastForward())
	return binary.AppendUvarint(body, s.out.base())
}

// resume aligns a successor's fresh stream to a RESUME body: its outbox
// numbers its next push above the send base, and its dedup restarts at
// the ack base.
func (s *stream) resume(body []byte) error {
	sendBase, n := binary.Uvarint(body)
	ackBase, m := binary.Uvarint(body[max(n, 0):])
	if n <= 0 || m <= 0 {
		return errors.New("netrt: malformed RESUME payload")
	}
	s.out.nextSeq, s.lastAck = sendBase, sendBase
	s.recv = dedupReliable{contig: ackBase} // everything ≤ ackBase counts as seen
	return nil
}

// link is a stream on the connection installed for it. Its owner (hubPeer,
// client) guards it with its mutex, and every method runs under it.
type link struct {
	stream
	conn *frameConn // nil while disconnected; only its writer writes it
	// dups counts the duplicates admit turns away; met and peer meter them.
	dups int
	met  *netMetrics
	peer int
}

// admit takes the numbered frame seq — dedup, a duplicate counted — and
// owes its cumulative ack, reporting whether the frame is fresh. Every
// frame is acked, so a repeated ack tells the sender a frame is missing.
func (l *link) admit(seq uint64) bool {
	fresh := l.recv.admit(seq)
	if !fresh {
		l.dups++
		l.met.dupDropped(l.peer)
	}
	if l.conn != nil {
		l.conn.owe(kAck, 0, numPayload(l.recv.contig, nil))
	}
	return fresh
}

// acked applies the far end's ACK v; a fast retransmit wakes the writer.
func (l *link) acked(v uint64) {
	if l.ack(v) && l.conn != nil {
		l.conn.poke()
	}
}

// install makes conn the link's connection and returns the one it
// replaces. Everything unacked is due on conn, which owes the cumulative
// ack behind whatever it was already owed (RESUME, ROOT) once the link has
// admitted a frame.
func (l *link) install(conn *frameConn) (old *frameConn) {
	old, l.conn = l.conn, conn
	if ack, owed := l.reconnect(); owed {
		conn.owe(kAck, 0, numPayload(ack, nil))
	}
	return old
}

// send appends a frame to the stream and wakes the writer; without a
// connection it waits for the replay at the next install.
func (l *link) send(kind byte, p framePayload) {
	l.out.push(kind, p)
	if l.conn != nil {
		l.conn.poke()
	}
}

// tick is a retransmit timer's call: the connection owes a PING when ping
// is set, and its writer scans the stream when frames are unacked.
func (l *link) tick(ping bool) {
	if l.conn == nil {
		return
	}
	if ping {
		l.conn.owe(kPing, 0, framePayload{})
	}
	if !l.out.empty() {
		l.conn.retx = true
		l.conn.poke()
	}
}

// take appends to dst what a writer pass of conn sends at now: the frames
// conn is owed, then the stream's frames due — never sent, marked due, or,
// when a scan was asked for, last sent before cutoff. It reports false,
// taking nothing, once conn is no longer the link's.
func (l *link) take(conn *frameConn, dst []outFrame, now, cutoff time.Time) ([]outFrame, bool) {
	if l.conn != conn {
		return dst, false
	}
	dst = append(dst, conn.owed...)
	clear(conn.owed)
	conn.owed = conn.owed[:0]
	dst = l.out.take(dst, now, cutoff, conn.retx)
	conn.retx = false
	return dst, true
}

// wbuf is a writer's scratch: one pass's frames, and their encoding.
type wbuf struct {
	frames []outFrame
	batch  frameBatch
}

// write sends w's frames in one write under the idle deadline, if any, and
// returns how many went out; a failed write closes conn.
func (w *wbuf) write(conn *frameConn, idle time.Duration) (int, error) {
	for _, f := range w.frames {
		_ = w.batch.add(f.kind, f.seq, f.p) // a frame over the limit is never sent
	}
	clear(w.frames) // release the bodies
	n := w.batch.frames
	if n == 0 {
		return 0, nil
	}
	if idle > 0 {
		conn.nc.SetWriteDeadline(time.Now().Add(idle))
	}
	err := conn.writeFrames(&w.batch)
	if err != nil {
		conn.Close()
	}
	return n, err
}
