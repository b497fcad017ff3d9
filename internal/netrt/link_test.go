package netrt

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"net"
	"slices"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/source"
)

func TestDedupReliable(t *testing.T) {
	var d dedupReliable
	if d.admit(0) {
		t.Fatal("seq 0 is reserved for control frames")
	}
	for _, c := range []struct {
		seq   uint64
		fresh bool
		ack   uint64
	}{
		{2, true, 0}, {1, true, 2}, {1, false, 2}, {2, false, 2},
		{5, true, 2}, {4, true, 2}, {3, true, 5}, {5, false, 5},
	} {
		if got := d.admit(c.seq); got != c.fresh {
			t.Fatalf("admit(%d) = %v, want %v", c.seq, got, c.fresh)
		}
		if d.cumAck() != c.ack {
			t.Fatalf("after admit(%d): cumAck = %d, want %d", c.seq, d.cumAck(), c.ack)
		}
	}
	if len(d.ahead) != 0 {
		t.Fatalf("ahead set not drained: %v", d.ahead)
	}
}

// dedupModel is dedupReliable's specification as a set: a seq is admitted
// once, above the floor that a RESUME and fastForward set, and the
// cumulative ack is the end of the run of admitted seqs above the floor.
type dedupModel struct {
	floor uint64
	seen  map[uint64]bool
}

func (m *dedupModel) admit(seq uint64) bool {
	if seq == 0 || seq <= m.floor || m.seen[seq] {
		return false
	}
	m.seen[seq] = true
	return true
}

func (m *dedupModel) cumAck() uint64 {
	c := m.floor
	for m.seen[c+1] {
		c++
	}
	return c
}

func (m *dedupModel) fastForward() uint64 {
	for s := range m.seen {
		m.floor = max(m.floor, s)
	}
	m.seen = map[uint64]bool{}
	return m.floor
}

// TestChaosDedupReliableModel drives dedupReliable and dedupModel through
// the same random streams — mostly in order, which takes admit's fast
// path, with reorderings, duplicates, the reserved seq 0, resumes
// (stream.resume) and fast-forwards — and checks that they agree after
// every step.
func TestChaosDedupReliableModel(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for run := 0; run < 200; run++ {
		var s stream
		d := &s.recv
		m := &dedupModel{seen: map[uint64]bool{}}
		for step := 0; step < 300; step++ {
			switch r := rng.Intn(100); {
			case r == 0:
				base := d.cumAck() + uint64(rng.Intn(5))
				if err := s.resume(resumeBody(0, base)); err != nil {
					t.Fatal(err)
				}
				m.floor, m.seen = base, map[uint64]bool{}
			case r == 1:
				if got, want := d.fastForward(), m.fastForward(); got != want {
					t.Fatalf("run %d step %d: fastForward = %d, model %d", run, step, got, want)
				}
			default:
				var seq uint64
				switch c := d.cumAck(); {
				case r < 60:
					seq = c + 1 // the next in order
				case r < 85:
					seq = c + 2 + uint64(rng.Intn(6)) // ahead of a gap
				case r < 98:
					seq = uint64(rng.Int63n(int64(c) + 1)) // a duplicate, or 0
				default:
					seq = 0
				}
				if got, want := d.admit(seq), m.admit(seq); got != want {
					t.Fatalf("run %d step %d: admit(%d) = %v, model %v", run, step, seq, got, want)
				}
			}
			if got, want := d.cumAck(), m.cumAck(); got != want {
				t.Fatalf("run %d step %d: cumAck = %d, model %d", run, step, got, want)
			}
			for s := range d.ahead {
				if s <= d.contig+1 {
					t.Fatalf("run %d step %d: seq %d held ahead of contig %d", run, step, s, d.contig)
				}
			}
		}
	}
}

// takeDue takes every frame due at now (outbox.take with a full scan).
func (o *outbox) takeDue(now, cutoff time.Time) []outFrame { return o.take(nil, now, cutoff, true) }

func TestOutboxAckAndRetransmit(t *testing.T) {
	var s stream
	o := &s.out
	o.push(kMsg, rawPayload([]byte("a")))
	o.push(kMsg, rawPayload([]byte("b")))
	o.push(kMsg, rawPayload([]byte("c")))
	now := time.Now()
	due := o.takeDue(now, now)
	if len(due) != 3 || due[0].seq != 1 || due[2].seq != 3 {
		t.Fatalf("initial takeDue = %v", due)
	}
	// Nothing is due again before the cutoff passes.
	if due := o.takeDue(now, now.Add(-time.Second)); len(due) != 0 {
		t.Fatalf("premature retransmit: %v", due)
	}
	s.ack(2)
	due = o.takeDue(now.Add(time.Second), now.Add(time.Second))
	if len(due) != 1 || due[0].seq != 3 || due[0].attempt != 2 {
		t.Fatalf("post-ack takeDue = %+v", due)
	}
	s.reconnect()
	if due := o.takeDue(now, now.Add(-time.Hour)); len(due) != 1 {
		t.Fatalf("reconnect did not rearm: %v", due)
	}
	s.ack(3)
	if !o.empty() {
		t.Fatal("outbox not drained by cumulative ack")
	}
}

// TestChaosOutboxFastRetransmit: the third repeat of the receiver's
// cumulative ack while frames are unacked marks the oldest one due at
// once; a higher ack resets the count; an empty outbox counts nothing.
func TestChaosOutboxFastRetransmit(t *testing.T) {
	var s stream
	o := &s.out
	for i := 0; i < 4; i++ {
		if s.ack(0) {
			t.Fatal("an empty outbox called for a fast retransmit")
		}
	}
	if s.repeats != 0 {
		t.Fatalf("an empty outbox counted %d repeated acks", s.repeats)
	}
	for _, b := range []string{"a", "b", "c", "d", "e", "f"} {
		o.push(kMsg, rawPayload([]byte(b)))
	}
	now := time.Now()
	o.takeDue(now, now)
	due := func() []outFrame { return o.takeDue(now, now.Add(-time.Hour)) }

	// Frame 1 is lost, and frames 2, 3 and 4 each draw an ack of 0.
	if s.ack(0) || s.ack(0) {
		t.Fatal("fast retransmit before the third repeated ack")
	}
	if d := due(); len(d) != 0 {
		t.Fatalf("frames due before the third repeated ack: %v", d)
	}
	if !s.ack(0) {
		t.Fatal("the third repeated ack did not call for a fast retransmit")
	}
	if d := due(); len(d) != 1 || d[0].seq != 1 || d[0].attempt != 2 {
		t.Fatalf("after the third repeated ack, due = %+v, want seq 1 on its second attempt", d)
	}
	if s.ack(0) {
		t.Fatal("a fourth repeat retransmitted again")
	}

	// A higher ack pops what it covers and starts a new count; a stale one
	// counts nothing.
	if s.ack(2) || o.base() != 2 {
		t.Fatalf("ack 2: base %d, want 2", o.base())
	}
	if s.ack(1) || s.ack(2) || s.ack(2) {
		t.Fatal("fast retransmit before the third repeat of the new ack")
	}
	if !s.ack(2) {
		t.Fatal("the third repeat of the new ack did not call for a fast retransmit")
	}
	if d := due(); len(d) != 1 || d[0].seq != 3 {
		t.Fatalf("after the new ack's third repeat, due = %+v, want seq 3", d)
	}
	s.ack(6)
	for i := 0; i < 3; i++ {
		if s.ack(6) {
			t.Fatal("a drained outbox called for a fast retransmit")
		}
	}
}

// TestOutboxReusesItsFront: acked frames are popped off the front, and a
// stream that keeps a steady number of frames in flight stops growing the
// outbox's slice.
func TestOutboxReusesItsFront(t *testing.T) {
	var s stream
	o := &s.out
	for i := 0; i < 8; i++ {
		o.push(kMsg, rawPayload(nil))
	}
	grown := 0
	for round := 0; round < 1000; round++ {
		before := cap(o.frames)
		o.push(kMsg, rawPayload(nil))
		if cap(o.frames) != before {
			grown++
		}
		s.ack(o.nextSeq - 8)
		live := o.unacked()
		if len(live) != 8 || live[0].seq != o.nextSeq-7 || live[7].seq != o.nextSeq {
			t.Fatalf("round %d: unacked seqs %d..%d (%d), want %d..%d", round,
				live[0].seq, live[len(live)-1].seq, len(live), o.nextSeq-7, o.nextSeq)
		}
	}
	if grown > 2 {
		t.Errorf("the outbox's slice grew %d times with 8 frames in flight", grown)
	}
}

// resumeBody is a RESUME body: the send base, then the ack base.
func resumeBody(sendBase, ackBase uint64) []byte {
	return binary.AppendUvarint(binary.AppendUvarint(nil, sendBase), ackBase)
}

// TestStreamRefusesAckAboveNextSeq: an ACK is input from the far end, and
// one above the highest seq pushed acks nothing. Taken, it would pop every
// frame and leave the ack base past the next push, which no later ack could
// then pop: resent every tick, forever.
func TestStreamRefusesAckAboveNextSeq(t *testing.T) {
	var s stream
	s.out.push(kMsg, rawPayload(nil))
	s.out.push(kMsg, rawPayload(nil))
	if s.ack(10) || s.lastAck != 0 || len(s.out.unacked()) != 2 {
		t.Fatalf("ack 10 of 2 frames: ack base %d, %d unacked; want it refused", s.lastAck, len(s.out.unacked()))
	}
	s.out.push(kMsg, rawPayload(nil))
	for i := 0; i < 4; i++ {
		s.ack(3)
	}
	if !s.out.empty() || s.lastAck != 3 {
		t.Fatalf("after ack 3: %d unacked, ack base %d; want none and 3", len(s.out.unacked()), s.lastAck)
	}
}

// TestLinkInstall: a connection installed on a link that has admitted
// nothing owes nothing; once a frame is admitted, the next install owes
// its cumulative ack, ahead of every unacked frame, all due again. The
// replaced connection's writer takes nothing more.
func TestLinkInstall(t *testing.T) {
	var l link
	first := newFrameConn(&recConn{discard: true}, 0)
	if old := l.install(first); old != nil || len(first.owed) != 0 {
		t.Fatalf("a first install replaced %v and owes %v; want nothing", old, first.owed)
	}
	l.send(kMsg, numPayload(2, []byte{1}))
	now := time.Now()
	if got, _ := l.take(first, nil, now, now); len(got) != 1 {
		t.Fatalf("the first pass took %d frames, want the MSG", len(got))
	}
	if !l.admit(1) || len(first.owed) != 1 {
		t.Fatalf("admitting seq 1 owes %v, want its ACK", first.owed)
	}
	first.owed = first.owed[:0]
	second := newFrameConn(&recConn{discard: true}, 0)
	if old := l.install(second); old != first {
		t.Fatal("install did not return the connection it replaced")
	}
	if got, mine := l.take(first, nil, now, now); mine || len(got) != 0 {
		t.Fatalf("the replaced connection took %d frames (mine=%v)", len(got), mine)
	}
	got, mine := l.take(second, nil, now, now.Add(-time.Hour))
	if !mine || len(got) != 2 || got[0].kind != kAck || got[0].p.num != 1 ||
		got[1].kind != kMsg || got[1].seq != 1 || got[1].attempt != 2 {
		t.Fatalf("the new connection's first pass took %+v (mine=%v); want ACK 1, then MSG 1's second attempt", got, mine)
	}
}

// TestClientFastRetransmit: the client applies the hub's ACKs by the
// hub's rule. Three repeats of an ack while frames are unacked have its
// next writer pass resend the oldest of them, long before its 4·RTO.
func TestClientFastRetransmit(t *testing.T) {
	rc := &recConn{}
	c := &client{stats: &sim.PeerStats{}, cfg: &Config{N: 4, L: 64}, id: 1,
		res: Resilience{}.withDefaults(), link: link{conn: newFrameConn(rc, 0)}}
	c.mu.Lock()
	for i := 0; i < 3; i++ {
		c.push(kMsg, numPayload(2, []byte{byte(i)}))
	}
	c.mu.Unlock()
	var w wbuf
	c.pass(c.conn, &w)
	rc.wrote = rc.wrote[:0]
	ack := func(v uint64) { c.handleFrame(kAck, 0, binary.AppendUvarint(nil, v)) }
	ack(1) // seq 1 arrived and 2 was lost: each later arrival repeats ack 1
	for i := 0; i < 3; i++ {
		ack(1)
	}
	c.pass(c.conn, &w)
	kind, seq, _, err := readFrame(bytes.NewReader(rc.wrote))
	if err != nil || kind != kMsg || seq != 2 {
		t.Fatalf("after the third repeat of ack 1 the client wrote %s seq %d (%v), want MSG seq 2", kindName(kind), seq, err)
	}
	if n := len(appendFrame(nil, kind, seq, numPayload(2, []byte{1}))); n != len(rc.wrote) {
		t.Errorf("the pass wrote %d bytes, want MSG seq 2 alone (%d)", len(rc.wrote), n)
	}
}

// TestResumeFirstThenRootThenAck: on a resumed connection the hub's first
// frames are RESUME, ROOT and the ack of the fast-forwarded watermark, in
// that order, and then every unacked frame again. A connection installed
// for a peer the hub has admitted nothing from owes no ACK.
func TestResumeFirstThenRootThenAck(t *testing.T) {
	plan, err := source.ParseMirrorPlan("mirrors=2,byz=0,leaf=32,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	h := newTestHub(t, Config{N: 2, T: 1, L: 4096, MsgBits: 256, Seed: 1, Mirrors: plan})
	hp := h.peers[0]
	hp.mu.Lock()
	for _, seq := range []uint64{1, 2, 4} { // 3 died with the peer's last incarnation
		hp.recv.admit(seq)
	}
	hp.send(kMsg, numPayload(1, []byte{7}))
	hp.send(kMsg, numPayload(1, []byte{8}))
	hp.mu.Unlock()
	dialPeer := func(hello []byte) *frameConn {
		conn, err := net.Dial("tcp", h.shards[0].addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		fc := newFrameConn(conn, 0)
		if err := fc.writeFrame(kHello, 0, rawPayload(hello)); err != nil {
			t.Fatal(err)
		}
		return fc
	}
	next := func(fc *frameConn) (byte, uint64, []byte) {
		t.Helper()
		kind, seq, payload, err := fc.readFrame()
		if err != nil {
			t.Fatal(err)
		}
		return kind, seq, bytes.Clone(payload)
	}

	fc := dialPeer([]byte{0, 1}) // peer 0, resume flag
	if kind, _, p := next(fc); kind != kResume || !bytes.Equal(p, resumeBody(4, 0)) {
		t.Fatalf("first frame %s %x, want RESUME at send base 4, ack base 0", kindName(kind), p)
	}
	if kind, _, _ := next(fc); kind != kRoot {
		t.Fatalf("second frame %s, want ROOT", kindName(kind))
	}
	if kind, _, p := next(fc); kind != kAck || !bytes.Equal(p, []byte{4}) {
		t.Fatalf("third frame %s %x, want ACK 4", kindName(kind), p)
	}
	for want := uint64(1); want <= 2; want++ {
		if kind, seq, _ := next(fc); kind != kMsg || seq != want {
			t.Fatalf("replay %s seq %d, want MSG seq %d", kindName(kind), seq, want)
		}
	}

	fc = dialPeer([]byte{1}) // peer 1, never heard from
	if kind, _, _ := next(fc); kind != kRoot {
		t.Fatalf("first frame %s, want ROOT", kindName(kind))
	}
	h.send(h.peers[1], kMsg, numPayload(0, []byte{9}))
	if kind, seq, _ := next(fc); kind != kMsg || seq != 1 {
		t.Fatalf("after ROOT came %s seq %d, want MSG seq 1 and no ACK", kindName(kind), seq)
	}
}

// linkEnd is one end of TestLinkModel's link: its stream, the frames in
// flight toward it, and the set model of what it has admitted.
type linkEnd struct {
	s   stream
	in  []modelFrame
	rto time.Duration
	// inc numbers the end's incarnations. ids and seqs are what its
	// current incarnation admitted, above the floor its RESUME set.
	inc   int
	ids   map[uint64]bool
	seqs  map[uint64]bool
	floor uint64
	// base, lastAck and cum are the positions last seen, held monotone.
	base, lastAck, cum uint64
}

// modelFrame is a frame in flight: a data frame carries its global id, an
// ACK its value, in id.
type modelFrame struct {
	kind byte
	seq  uint64
	id   uint64
}

func newLinkEnd(inc int, rto time.Duration) *linkEnd {
	return &linkEnd{inc: inc, rto: rto, ids: map[uint64]bool{}, seqs: map[uint64]bool{}}
}

// cumAck is the model's cumulative ack: the run of admitted seqs above
// the floor.
func (e *linkEnd) cumAck() uint64 {
	c := e.floor
	for e.seqs[c+1] {
		c++
	}
	return c
}

// TestLinkModel runs two streams — a hub's end and a client's — over a
// seeded channel that drops, duplicates, reorders and severs, with churn
// steps in which the client's incarnation dies with whatever it held and a
// successor resumes from the hub's RESUME. A brute-force set model holds
// them to four properties: every pushed frame is admitted exactly once (a
// dead incarnation's at most once); no successor frame is taken for a
// duplicate; the ack bases are monotone; and once the channel quiesces,
// both outboxes drain.
func TestLinkModel(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		runLinkModel(t, seed)
	}
}

func runLinkModel(t *testing.T, seed int64) {
	const rto = 5 * time.Millisecond
	rng := rand.New(rand.NewSource(seed))
	hub, cli := newLinkEnd(0, rto), newLinkEnd(0, 4*rto)
	now := time.Unix(0, 0)
	// A frame's id says who pushed it: the hub (inc -1) or an incarnation
	// of the client; hubSeq is the seq of each of the hub's.
	var nextID uint64
	pushedBy := map[uint64]int{}
	hubSeq := map[uint64]uint64{}
	clientSaw := map[uint64]bool{} // hub frames any client incarnation admitted
	lossy := true
	put := func(to *linkEnd, f modelFrame) {
		if lossy && rng.Intn(100) < 15 {
			return
		}
		to.in = append(to.in, f)
		if lossy && rng.Intn(100) < 10 {
			to.in = append(to.in, f)
		}
	}
	push := func(e *linkEnd, inc int) {
		nextID++
		pushedBy[nextID] = inc
		e.s.out.push(kMsg, numPayload(nextID, nil))
		if inc < 0 {
			hubSeq[nextID] = e.s.out.nextSeq
		}
	}
	pass := func(from, to *linkEnd, scan bool) {
		for _, f := range from.s.out.take(nil, now, now.Add(-from.rto), scan && !from.s.out.empty()) {
			put(to, modelFrame{kind: f.kind, seq: f.seq, id: f.p.num})
		}
	}
	deliver := func(to, from *linkEnd, i int) {
		f := to.in[i]
		to.in = slices.Delete(to.in, i, i+1)
		if f.kind == kAck {
			to.s.ack(f.id)
			return
		}
		want := !to.ids[f.id]
		if got := to.s.recv.admit(f.seq); got != want {
			if want && pushedBy[f.id] > 0 {
				t.Fatalf("seed %d: successor frame %d (seq %d, incarnation %d) taken for a duplicate", seed, f.id, f.seq, pushedBy[f.id])
			}
			t.Fatalf("seed %d: frame %d (seq %d) admitted %v, model %v", seed, f.id, f.seq, got, want)
		}
		to.ids[f.id], to.seqs[f.seq] = true, true
		if to == cli {
			clientSaw[f.id] = true
		}
		if got, want := to.s.recv.cumAck(), to.cumAck(); got != want {
			t.Fatalf("seed %d: cumulative ack %d, model %d", seed, got, want)
		}
		put(from, modelFrame{kind: kAck, id: to.s.recv.cumAck()})
	}
	reconnect := func(e, far *linkEnd) {
		if ack, owed := e.s.reconnect(); owed {
			put(far, modelFrame{kind: kAck, id: ack})
		}
	}
	monotone := func(e *linkEnd, step int) {
		base, cum := e.s.out.base(), e.s.recv.cumAck()
		if base < e.base || e.s.lastAck < e.lastAck || cum < e.cum {
			t.Fatalf("seed %d step %d: positions went back: base %d→%d, ack %d→%d, cum %d→%d",
				seed, step, e.base, base, e.lastAck, e.s.lastAck, e.cum, cum)
		}
		e.base, e.lastAck, e.cum = base, e.s.lastAck, cum
	}

	for step := 0; step < 600; step++ {
		now = now.Add(time.Millisecond)
		switch r := rng.Intn(100); {
		case r < 15:
			push(hub, -1)
		case r < 30:
			push(cli, cli.inc)
		case r < 42:
			pass(hub, cli, rng.Intn(2) == 0)
		case r < 54:
			pass(cli, hub, rng.Intn(2) == 0)
		case r < 97:
			to, from := hub, cli
			if r%2 == 0 {
				to, from = cli, hub
			}
			if len(to.in) > 0 {
				i := 0
				if rng.Intn(100) < 30 {
					i = rng.Intn(len(to.in)) // reordered
				}
				deliver(to, from, i)
			}
		case r < 99: // sever: what was in flight is lost
			hub.in, cli.in = nil, nil
			reconnect(hub, cli)
			reconnect(cli, hub)
		default: // churn: the client dies and a successor resumes
			hub.in, cli.in = nil, nil
			sendBase := hub.floor
			for s := range hub.seqs {
				sendBase = max(sendBase, s)
			}
			ackBase := hub.s.out.base()
			body := hub.s.resumeBody()
			if !bytes.Equal(body, resumeBody(sendBase, ackBase)) {
				t.Fatalf("seed %d: RESUME %x, model send base %d, ack base %d", seed, body, sendBase, ackBase)
			}
			hub.floor, hub.seqs = sendBase, map[uint64]bool{}
			succ := newLinkEnd(cli.inc+1, cli.rto)
			if err := succ.s.resume(body); err != nil {
				t.Fatal(err)
			}
			succ.floor = ackBase
			succ.base, succ.lastAck, succ.cum = cli.base, cli.lastAck, ackBase
			cli = succ
			reconnect(hub, cli)
			reconnect(cli, hub)
		}
		monotone(hub, step)
		monotone(cli, step)
	}

	lossy = false
	for round := 0; !hub.s.out.empty() || !cli.s.out.empty(); round++ {
		if round == 10 {
			t.Fatalf("seed %d: outboxes hold %d and %d frames after the channel quiesced",
				seed, len(hub.s.out.unacked()), len(cli.s.out.unacked()))
		}
		now = now.Add(time.Second)
		pass(hub, cli, true)
		pass(cli, hub, true)
		for len(hub.in)+len(cli.in) > 0 {
			if len(hub.in) > 0 {
				deliver(hub, cli, 0)
			}
			if len(cli.in) > 0 {
				deliver(cli, hub, 0)
			}
		}
	}
	for id, inc := range pushedBy {
		switch {
		case inc < 0 && hubSeq[id] > cli.floor && !cli.ids[id]:
			t.Fatalf("seed %d: hub frame %d (seq %d) never reached the client's incarnation %d", seed, id, hubSeq[id], cli.inc)
		case inc < 0 && !clientSaw[id]:
			t.Fatalf("seed %d: hub frame %d (seq %d) reached no client incarnation", seed, id, hubSeq[id])
		case inc == cli.inc && !hub.ids[id]:
			t.Fatalf("seed %d: client frame %d never reached the hub", seed, id)
		}
	}
}
