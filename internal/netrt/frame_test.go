package netrt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// recConn is a net.Conn for frame I/O tests: it keeps what is written to it
// (unless discard is set), serves reads from src or from the embedded
// connection, and counts the calls that reach it. Deadlines are counted and,
// with an embedded connection, passed on.
type recConn struct {
	net.Conn
	src     io.Reader
	discard bool

	mu                      sync.Mutex
	wrote                   []byte
	writes, reads, readArms int
}

func (c *recConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes++
	if !c.discard {
		c.wrote = append(c.wrote, p...)
	}
	c.mu.Unlock()
	if c.Conn != nil {
		return c.Conn.Write(p)
	}
	return len(p), nil
}

func (c *recConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	c.reads++
	c.mu.Unlock()
	if c.src != nil {
		return c.src.Read(p)
	}
	return c.Conn.Read(p)
}

func (c *recConn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.readArms++
	c.mu.Unlock()
	if c.Conn != nil {
		return c.Conn.SetReadDeadline(t)
	}
	return nil
}

func (c *recConn) SetWriteDeadline(t time.Time) error {
	if c.Conn != nil {
		return c.Conn.SetWriteDeadline(t)
	}
	return nil
}

func (c *recConn) counts() (writes, reads, readArms int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writes, c.reads, c.readArms
}

// writeFrame writes one frame through the connection's one write
// primitive, as the HELLO/REJECT handshake does.
func (fc *frameConn) writeFrame(kind byte, seq uint64, p framePayload) error {
	var b frameBatch
	if err := b.add(kind, seq, p); err != nil {
		return err
	}
	return fc.writeFrames(&b)
}

// patterned is a payload of n bytes that depends on salt at every position,
// so a misplaced or torn payload does not compare equal.
func patterned(n int, salt uint64) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(uint64(i)*131 + salt*29 + salt>>8)
	}
	return p
}

// TestWriteFrameBytesAndWrites: whatever its kind and size, a frame reaches
// the connection as exactly the bytes appendFrame defines — in one Write up
// to coalesceMax payload bytes, in two (header, then the body uncopied)
// above — and a numbered payload is its number's uvarint, then its body.
func TestWriteFrameBytesAndWrites(t *testing.T) {
	sizes := []int{0, 1, coalesceMax - 3, coalesceMax - 1, coalesceMax, coalesceMax + 1, 1 << 20}
	for kind := kHello; kind <= kLast; kind++ {
		for _, size := range sizes {
			for _, seq := range []uint64{0, 127, 128, 1 << 40} {
				body := patterned(size, seq+uint64(kind))
				num := seq + 5
				for _, p := range []framePayload{rawPayload(body), numPayload(num, body)} {
					payload := body
					if p.hasNum {
						payload = append(binary.AppendUvarint(nil, num), body...)
					}
					rc := &recConn{}
					if err := newFrameConn(rc, 0).writeFrame(kind, seq, p); err != nil {
						t.Fatal(err)
					}
					want := appendFrame(nil, kind, seq, p)
					if _, _, got, err := readFrame(bytes.NewReader(want)); err != nil || !bytes.Equal(got, payload) || p.len() != len(payload) {
						t.Fatalf("%s seq %d, %d bytes, numbered %v: appendFrame encoded a %d-byte payload for %d (%v)",
							kindName(kind), seq, size, p.hasNum, len(got), len(payload), err)
					}
					if !bytes.Equal(rc.wrote, want) {
						t.Fatalf("%s seq %d, %d bytes, numbered %v: wire bytes differ from appendFrame's", kindName(kind), seq, size, p.hasNum)
					}
					wantWrites := 1
					if len(payload) > coalesceMax {
						wantWrites = 2
					}
					if rc.writes != wantWrites {
						t.Errorf("%s seq %d, %d bytes, numbered %v: %d Writes, want %d", kindName(kind), seq, size, p.hasNum, rc.writes, wantWrites)
					}
				}
			}
		}
	}
	if err := newFrameConn(&recConn{}, 0).writeFrame(kMsg, 1, rawPayload(make([]byte, maxFrame))); err == nil {
		t.Error("a payload of maxFrame bytes was accepted")
	}
}

// TestWriteFrameReusesItsScratch: a batch written over and over costs no
// allocation for a small frame after the first one, and a frame written
// after a larger one is not polluted by it.
func TestWriteFrameReusesItsScratch(t *testing.T) {
	rc := &recConn{discard: true}
	fc := newFrameConn(rc, 0)
	var b frameBatch
	write := func(kind byte, seq uint64, p framePayload) error {
		if err := b.add(kind, seq, p); err != nil {
			return err
		}
		return fc.writeFrames(&b)
	}
	payload := patterned(300, 1)
	if err := write(kQReply, 1, rawPayload(patterned(coalesceMax, 2))); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { _ = write(kQReply, 1<<20, rawPayload(payload)) }); n != 0 {
		t.Errorf("a small-frame write allocates %v times", n)
	}
	rc.discard = false
	_ = write(kAck, 0, rawPayload([]byte{9}))
	if want := appendFrame(nil, kAck, 0, rawPayload([]byte{9})); !bytes.Equal(rc.wrote, want) {
		t.Errorf("frame after a larger one: % x, want % x", rc.wrote, want)
	}
}

// TestWriteFrameConcurrent: eight goroutines send on one hub peer's stream
// at once, and the connection's one writer puts their frames on it; every
// frame arrives whole, and each goroutine's frames arrive in its own order.
func TestWriteFrameConcurrent(t *testing.T) {
	const writers, each = 8, 1000
	sizeOf := func(i int) int {
		return []int{0, 17, coalesceMax - 1, coalesceMax, coalesceMax + 1, 2 * coalesceMax}[i%6]
	}
	// A frame's body is its writer and index, then a patterned tail.
	body := func(w, i int) []byte {
		return append(binary.BigEndian.AppendUint64(nil, uint64(w)<<32|uint64(i)), patterned(sizeOf(i), uint64(w*each+i))...)
	}
	out, in := loopbackPair(t)
	h := bareHub(t, &sim.Spec{Config: sim.Config{N: 1, L: 64, MsgBits: 64}})
	hp := h.peers[0]
	hp.conn = newFrameConn(out, 0)
	h.wg.Add(1)
	go h.writer(hp, hp.conn)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.send(hp, kQReply, rawPayload(body(w, i)))
			}
		}(w)
	}

	next := make([]int, writers)
	rd := newFrameConn(in, 10*time.Second)
	for seq := uint64(1); seq <= writers*each; seq++ {
		kind, got, payload, err := rd.readFrame()
		if err != nil {
			t.Fatal(err)
		}
		if kind != kQReply || got != seq || len(payload) < 8 {
			t.Fatalf("read %s seq %d (%d bytes), want QREPLY seq %d", kindName(kind), got, len(payload), seq)
		}
		id := binary.BigEndian.Uint64(payload)
		w, i := int(id>>32), int(uint32(id))
		if w >= writers || i != next[w] {
			t.Fatalf("read writer %d's frame %d; its next frame is %d", w, i, next[w])
		}
		if !bytes.Equal(payload, body(w, i)) {
			t.Fatalf("writer %d frame %d: payload torn or misplaced (%d bytes)", w, i, len(payload))
		}
		next[w]++
	}
	wg.Wait()
	close(h.stop)
	h.wg.Wait()
	for w, n := range next {
		if n != each {
			t.Errorf("writer %d: %d of %d frames arrived", w, n, each)
		}
	}
}

// seamStream is a run of frames whose sizes cross every boundary a reader
// has: empty payloads, payloads around the read buffer's size and around
// eagerFrame.
func seamStream() (stream []byte, frames []sentFrame) {
	sizes := []int{0, 1, 14, readBufSize - 7, readBufSize - 6, readBufSize - 5, readBufSize, 3 * readBufSize, 0, 9,
		keepFrame - 3, keepFrame - 2, keepFrame - 1, 5, keepFrame + 1, 7,
		eagerFrame - 3, eagerFrame - 2, eagerFrame - 1, eagerFrame + 1, 3, 2*eagerFrame + 5}
	for i, size := range sizes {
		f := sentFrame{kind: kHello + byte(i)%kResume, seq: uint64(i) * 1000, payload: patterned(size, uint64(i))}
		frames = append(frames, f)
		stream = appendFrame(stream, f.kind, f.seq, rawPayload(f.payload))
	}
	return stream, frames
}

// TestReadFrameAtEverySeam: however the socket cuts the stream up, the
// frames that come out of a connection's reader are the ones that went in,
// and a frame read into the kept buffer after a longer one shows none of
// the longer one's bytes.
func TestReadFrameAtEverySeam(t *testing.T) {
	stream, frames := seamStream()
	cuts := map[string]func(io.Reader) io.Reader{
		"whole":    func(r io.Reader) io.Reader { return r },
		"half":     iotest.HalfReader,
		"one byte": iotest.OneByteReader,
		"data+EOF": iotest.DataErrReader,
	}
	for name, cut := range cuts {
		fc := newFrameConn(&recConn{src: cut(bytes.NewReader(stream))}, 0)
		for i, want := range frames {
			kind, seq, payload, err := fc.readFrame()
			if err != nil {
				t.Fatalf("%s: frame %d: %v", name, i, err)
			}
			if kind != want.kind || seq != want.seq || !bytes.Equal(payload, want.payload) {
				t.Fatalf("%s: frame %d is (%s, seq %d, %d bytes), want (%s, seq %d, %d bytes)", name, i,
					kindName(kind), seq, len(payload), kindName(want.kind), want.seq, len(want.payload))
			}
		}
		if _, _, _, err := fc.readFrame(); err != io.EOF {
			t.Errorf("%s: after the last frame: %v, want EOF", name, err)
		}
	}
}

// TestReadFrameAllocatesWhatArrives: four hostile bytes announcing maxFrame
// cost the reader one eagerFrame-sized buffer and not 64 MiB; a frame that
// really is several MiB still round-trips, and one of up to eagerFrame gets
// its one exact allocation.
func TestReadFrameAllocatesWhatArrives(t *testing.T) {
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], maxFrame)
	for _, tail := range [][]byte{nil, {kMsg, 1, 2, 3}} {
		readers := map[string]func(io.Reader) error{
			"plain": func(r io.Reader) error { _, _, _, err := readFrame(r); return err },
			"connection": func(r io.Reader) error {
				_, _, _, err := newFrameConn(&recConn{src: r}, 0).readFrame()
				return err
			},
		}
		for name, read := range readers {
			var err error
			got := allocated(func() { err = read(bytes.NewReader(append(hdr[:], tail...))) })
			if err == nil {
				t.Fatalf("%s reader: a frame that announced maxFrame and stopped was accepted", name)
			}
			if got >= 2<<20 {
				t.Errorf("%s reader, header announcing maxFrame + %d bytes: allocated %d bytes, want < 2 MiB", name, len(tail), got)
			}
		}
	}

	big := patterned(3<<20, 77)
	kind, seq, payload, err := readFrame(bytes.NewReader(appendFrame(nil, kDone, 5, rawPayload(big))))
	if err != nil || kind != kDone || seq != 5 || !bytes.Equal(payload, big) {
		t.Fatalf("3 MiB frame: (%s, seq %d, %d bytes, %v)", kindName(kind), seq, len(payload), err)
	}

	exact := appendFrame(nil, kQReply, 1, rawPayload(patterned(256<<10, 3)))
	if got := allocated(func() { _, _, _, _ = readFrame(bytes.NewReader(exact)) }); got > uint64(len(exact))*9/8 { // its size class, once
		t.Errorf("256 KiB frame: reader allocated %d bytes for %d", got, len(exact))
	}
}

// repeatReader serves the same bytes over and over.
type repeatReader struct {
	data []byte
	at   int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	n := copy(p, r.data[r.at:])
	r.at = (r.at + n) % len(r.data)
	return n, nil
}

// TestFrameAllocBudgets: a warm connection reads a frame of up to keepFrame
// bytes without allocating, and an ACK costs no allocation on the client,
// nor on the hub, from the admission that owes it through the writer's
// pass that sends it.
func TestFrameAllocBudgets(t *testing.T) {
	for _, size := range []int{0, 9, 1000, readBufSize + 3, keepFrame - 20} {
		frame := appendFrame(nil, kMsg, 1<<20, rawPayload(patterned(size, 4)))
		fc := newFrameConn(&recConn{src: &repeatReader{data: frame}}, 0)
		if n := testing.AllocsPerRun(100, func() {
			if _, _, _, err := fc.readFrame(); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("reading a %d-byte frame allocates %v times", len(frame), n)
		}
	}

	// A duplicate MSG is acked and dropped.
	c := &client{stats: &sim.PeerStats{}, model: sim.Config{N: 4, L: 64}, id: 1, link: link{conn: newFrameConn(&recConn{discard: true}, 0)}}
	c.resume(binary.AppendUvarint([]byte{0}, 10)) // RESUME: send base 0, ack base 10
	msg := marshalAppend(binary.AppendUvarint(nil, 2), broadcastSamples()[1])
	var cw wbuf
	if n := testing.AllocsPerRun(100, func() {
		c.handleFrame(kMsg, 7, msg)
		c.pass(c.conn, &cw)
	}); n != 0 {
		t.Errorf("a client ACK allocates %v times", n)
	}

	h := &hub{idle: time.Second, stop: make(chan struct{})}
	hp := &hubPeer{link: link{conn: newFrameConn(&recConn{discard: true}, 0)}}
	var hw wbuf
	if n := testing.AllocsPerRun(100, func() {
		hp.mu.Lock()
		hp.conn.owe(kAck, 0, numPayload(1<<30, nil))
		hp.mu.Unlock()
		h.pass(hp, hp.conn, &hw)
	}); n != 0 {
		t.Errorf("a hub ACK allocates %v times", n)
	}
	if got := h.writes.written.Load(); got != 101 {
		t.Errorf("the hub wrote %d ACKs, want 101", got)
	}
}

// TestReadDeadlineArmedPerSocketRead: the idle deadline is set when the
// buffer is empty and the socket is about to be read — once for a burst of
// frames that arrived together, not once a frame — and not at all by a
// connection whose owner keeps the deadline.
func TestReadDeadlineArmedPerSocketRead(t *testing.T) {
	var burst []byte
	for i := 0; i < 1000; i++ {
		burst = appendFrame(burst, kAck, 0, numPayload(uint64(i), nil))
	}
	for _, idle := range []time.Duration{time.Second, 0} {
		rc := &recConn{src: bytes.NewReader(burst)}
		fc := newFrameConn(rc, idle)
		for i := 0; i < 1000; i++ {
			if _, _, _, err := fc.readFrame(); err != nil {
				t.Fatal(err)
			}
		}
		_, reads, arms := rc.counts()
		if want := (len(burst) + readBufSize - 1) / readBufSize; reads != want {
			t.Errorf("idle %v: %d socket reads for %d bytes, want %d", idle, reads, len(burst), want)
		}
		if idle > 0 && arms != reads {
			t.Errorf("idle %v: deadline armed %d times over %d socket reads", idle, arms, reads)
		}
		if idle == 0 && arms != 0 {
			t.Errorf("no idle timeout, yet the deadline was set %d times", arms)
		}
	}
}

// loopbackPair is a connected TCP pair; both ends are closed with the test.
func loopbackPair(t *testing.T) (dialed, accepted net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	dialed, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dialed.Close() })
	accepted, err = ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { accepted.Close() })
	return dialed, accepted
}

// TestHubTakesABurstInFewReads shows the mechanism as a count: HELLO and
// 1,000 QUERY frames are in the socket before the hub's reader starts, and
// the hub answers every one of them having read the socket about once per
// buffer-full, where the unbuffered reader took two reads a frame.
func TestHubTakesABurstInFewReads(t *testing.T) {
	const queries = 1000
	h := newTestHub(t, &sim.Spec{Config: sim.Config{N: 1, T: 0, L: 4096, MsgBits: 64, Seed: 3}}, Net{IdleTimeout: 5 * time.Second})
	peer, hubSide := loopbackPair(t)
	burst := appendFrame(nil, kHello, 0, numPayload(0, nil))
	for q := 1; q <= queries; q++ {
		burst = appendFrame(burst, kQuery, uint64(q), rawPayload(encodeQueryHeader(q, []int{q, q + 1, q + 2})))
	}
	if _, err := peer.Write(burst); err != nil {
		t.Fatal(err)
	}
	rc := &recConn{Conn: hubSide, discard: true}
	served := make(chan struct{})
	go func() {
		h.serve(rc)
		close(served)
	}()

	answered := make(map[int]bool)
	peer.SetReadDeadline(time.Now().Add(20 * time.Second))
	for in := newFrameConn(peer, 0); len(answered) < queries; {
		kind, _, payload, err := in.readFrame()
		if err != nil {
			t.Fatalf("%d of %d queries answered: %v", len(answered), queries, err)
		}
		if kind != kQReply {
			continue
		}
		if tag, _, _, _, _, ok := scanQuery(payload, 4096); ok {
			answered[tag] = true
		}
	}
	peer.Close()
	<-served
	_, reads, arms := rc.counts()
	bound := (len(burst)+readBufSize-1)/readBufSize + 2
	t.Logf("%d frames, %d bytes: %d socket reads, deadline armed %d times (bound %d; two reads a frame would be %d)",
		queries+1, len(burst), reads, arms, bound, 2*(queries+1))
	if reads > bound {
		t.Errorf("hub read the socket %d times for %d bytes, want at most %d", reads, len(burst), bound)
	}
	if arms != reads {
		t.Errorf("deadline armed %d times over %d socket reads", arms, reads)
	}
}

// TestHelloAndQueryInOneSegment: what follows HELLO in the same write is
// not lost between the hello read and the serve loop.
func TestHelloAndQueryInOneSegment(t *testing.T) {
	h := newTestHub(t, &sim.Spec{Config: sim.Config{N: 2, T: 0, L: 64, MsgBits: 64, Seed: 2}}, Net{IdleTimeout: 5 * time.Second})
	conn, err := net.Dial("tcp", h.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	both := appendFrame(nil, kHello, 0, numPayload(1, nil))
	both = appendFrame(both, kQuery, 1, rawPayload(encodeQueryHeader(5, []int{7, 8, 9})))
	if _, err := conn.Write(both); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for in := newFrameConn(conn, 0); ; {
		kind, _, payload, err := in.readFrame()
		if err != nil {
			t.Fatalf("the query that shared HELLO's segment was not answered: %v", err)
		}
		if kind != kQReply {
			continue
		}
		if tag, indices, _, ok := decodeQuery(nil, payload, 64); !ok || tag != 5 || len(indices) != 3 {
			t.Fatalf("mangled reply: ok=%v tag=%d indices=%v", ok, tag, indices)
		}
		return
	}
}

// recorder is a protocol stub that keeps the messages and replies
// delivered to it.
type recorder struct {
	from    []sim.PeerID
	msgs    []sim.Message
	replies []sim.QueryReply
}

func (p *recorder) Init(sim.Context) {}
func (p *recorder) OnMessage(from sim.PeerID, m sim.Message) {
	p.from = append(p.from, from)
	p.msgs = append(p.msgs, m)
}
func (p *recorder) OnQueryReply(r sim.QueryReply) { p.replies = append(p.replies, r) }

// TestMalformedMsgCounted: a MSG frame the client admits, and so acks,
// whose sender id or body does not decode is dropped, counted in
// dr_net_malformed_frames_dropped_total for the receiving peer, and never
// reaches the protocol; a well-formed MSG after them is delivered.
func TestMalformedMsgCounted(t *testing.T) {
	reg := obs.New()
	spec := &sim.Spec{Config: sim.Config{N: 4, L: 64}, Metrics: reg}
	rec := &recorder{}
	c := &client{stats: &sim.PeerStats{}, model: spec.Config, id: 1, impl: rec, met: newNetMetrics(spec),
		link: link{conn: newFrameConn(&recConn{discard: true}, 0)}}
	c.resume(binary.AppendUvarint([]byte{0}, 10)) // RESUME: send base 0, ack base 10
	from := binary.AppendUvarint(nil, 2)
	for i, garbage := range [][]byte{
		{0x80},                               // truncated sender id
		from,                                 // no body
		append(from[:1:1], 0xff, 0xff, 0xff), // a body of no message type
	} {
		c.handleFrame(kMsg, 11+uint64(i), garbage)
	}
	if len(rec.msgs) != 0 {
		t.Fatalf("the protocol received %d malformed messages", len(rec.msgs))
	}
	malformed := func() float64 {
		got, _ := reg.Snapshot().Series("dr_net_malformed_frames_dropped_total", map[string]string{"peer": "1"})
		return got.Value
	}
	if got := malformed(); got != 3 {
		t.Fatalf("dr_net_malformed_frames_dropped_total{peer=1} = %v, want 3", got)
	}
	c.handleFrame(kMsg, 14, marshalAppend(from, broadcastSamples()[1]))
	if len(rec.msgs) != 1 || rec.from[0] != 2 {
		t.Fatalf("the well-formed MSG after them reached the protocol %d times (from %v)", len(rec.msgs), rec.from)
	}
	if got := malformed(); got != 3 {
		t.Errorf("a well-formed MSG moved the malformed count to %v", got)
	}
}

// TestResumeAndReplayInOneSegment: the hub's RESUME and the two frames it
// replays right behind it arrive in one segment. awaitResume consumes the
// verdict only; the loop that follows, reading the same connection, delivers
// both replayed messages.
func TestResumeAndReplayInOneSegment(t *testing.T) {
	const ackBase = 40
	msgs := broadcastSamples()
	segment := appendFrame(nil, kPing, 0, framePayload{}) // pre-resume frame: discarded
	segment = appendFrame(segment, kResume, 0, rawPayload(binary.AppendUvarint(binary.AppendUvarint(nil, 7), ackBase)))
	for i, m := range msgs {
		p := numPayload(uint64(3+i), marshalAppend(nil, m)) // as hub.route rewrites it
		segment = appendFrame(segment, kMsg, ackBase+1+uint64(i), p)
	}
	rc := &recConn{src: bytes.NewReader(segment)}
	rec := &recorder{}
	c := &client{stats: &sim.PeerStats{}, model: sim.Config{N: 8, L: 4096}, id: 1, idle: time.Second, impl: rec, needResume: true}
	fc := newFrameConn(rc, c.idle)
	if err := c.awaitResume(fc); err != nil {
		t.Fatal(err)
	}
	if c.needResume || c.out.nextSeq != 7 || c.recv.cumAck() != ackBase {
		t.Fatalf("after RESUME: needResume=%v nextSeq=%d cumAck=%d", c.needResume, c.out.nextSeq, c.recv.cumAck())
	}
	if len(rec.msgs) != 0 {
		t.Fatalf("%d messages delivered before the handshake returned", len(rec.msgs))
	}
	c.conn = fc
	c.loop() // ends when the segment does: the redial budget of this client is zero
	c.pass(fc, &wbuf{})
	if len(rec.msgs) != len(msgs) {
		t.Fatalf("%d of the %d replayed messages were delivered", len(rec.msgs), len(msgs))
	}
	for i := range msgs {
		if rec.from[i] != sim.PeerID(3+i) || !bytes.Equal(marshalAppend(nil, rec.msgs[i]), marshalAppend(nil, msgs[i])) {
			t.Errorf("replayed message %d arrived as %T from %d", i, rec.msgs[i], rec.from[i])
		}
	}
	if _, reads, _ := rc.counts(); reads > 2 {
		t.Errorf("one segment took %d socket reads", reads)
	}
	// Each delivery was acked on the same connection, by its writer.
	var acks []uint64
	for r := bytes.NewReader(rc.wrote); r.Len() > 0; {
		kind, _, payload, err := readFrame(r)
		if err != nil || kind != kAck {
			t.Fatalf("client wrote %s (%v), want ACK", kindName(kind), err)
		}
		v, _ := binary.Uvarint(payload)
		acks = append(acks, v)
	}
	if fmt.Sprint(acks) != fmt.Sprint([]uint64{ackBase + 1, ackBase + 2}) {
		t.Errorf("acks %v, want [%d %d]", acks, ackBase+1, ackBase+2)
	}
}

// TestIdleDeadlineSparesAPingingLink: with the deadline armed only when the
// socket is read, a connection that says nothing but PING outlives several
// idle windows and is still served; TestIdleDeadlineDetectsDeadLink is the
// silent half.
func TestIdleDeadlineSparesAPingingLink(t *testing.T) {
	const idle = 200 * time.Millisecond
	h := newTestHub(t, &sim.Spec{Config: sim.Config{N: 1, T: 0, L: 64, MsgBits: 64, Seed: 1}}, Net{IdleTimeout: idle})
	conn, err := net.Dial("tcp", h.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fc := newFrameConn(conn, 0)
	if err := fc.writeFrame(kHello, 0, numPayload(0, nil)); err != nil {
		t.Fatal(err)
	}
	for end := time.Now().Add(4 * idle); time.Now().Before(end); time.Sleep(idle / 4) {
		if err := fc.writeFrame(kPing, 0, framePayload{}); err != nil {
			t.Fatalf("link dropped while pinging: %v", err)
		}
	}
	if err := fc.writeFrame(kQuery, 1, rawPayload(encodeQueryHeader(0, []int{1, 2}))); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		kind, _, _, err := fc.readFrame()
		if err != nil {
			t.Fatalf("pinging link was dropped: %v", err)
		}
		if kind == kQReply {
			return
		}
	}
}

// TestAppendFrameMatchesWriteFrame pins that appendFrame, the one
// definition of a frame's bytes, is what the one write primitive
// (writeFrames, through a one-frame batch) puts on the connection, and that
// frames laid end to end decode one by one.
func TestAppendFrameMatchesWriteFrame(t *testing.T) {
	cases := []struct {
		kind    byte
		seq     uint64
		p       framePayload
		payload []byte
	}{
		{kPing, 0, framePayload{}, nil},
		{kMsg, 1, rawPayload([]byte{1, 2, 3}), []byte{1, 2, 3}},
		{kMsg, 2, numPayload(300, []byte{1, 2, 3}), []byte{0xAC, 0x02, 1, 2, 3}},
		{kQReply, 1 << 40, rawPayload(bytes.Repeat([]byte{0xAB}, 300)), bytes.Repeat([]byte{0xAB}, 300)},
		{kAck, 127, numPayload(127, nil), []byte{127}},
		{kDone, 128, rawPayload([]byte{}), nil},
	}
	for _, tc := range cases {
		direct := &recConn{}
		if err := newFrameConn(direct, 0).writeFrame(tc.kind, tc.seq, tc.p); err != nil {
			t.Fatal(err)
		}
		batched := appendFrame(nil, tc.kind, tc.seq, tc.p)
		if !bytes.Equal(direct.wrote, batched) {
			t.Fatalf("kind=%d seq=%d: writeFrame %x != appendFrame %x",
				tc.kind, tc.seq, direct.wrote, batched)
		}
		// And a coalesced double encoding must decode as two frames.
		both := appendFrame(batched, tc.kind, tc.seq+1, tc.p)
		r := bytes.NewReader(both)
		for want := tc.seq; want <= tc.seq+1; want++ {
			kind, seq, payload, err := readFrame(r)
			if err != nil {
				t.Fatalf("decode coalesced: %v", err)
			}
			if kind != tc.kind || seq != want || !bytes.Equal(payload, tc.payload) {
				t.Fatalf("coalesced decode drift: kind=%d seq=%d", kind, seq)
			}
		}
	}
}
