package netrt

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"
	"time"

	"repro/internal/bitarray"
	"repro/internal/qplane"
	"repro/internal/sim"
	"repro/internal/source"
)

// A payload that frameConn.readFrame returns lies in the connection's kept
// buffer, and the next read writes over it. The tests below hand every
// frame handler a payload, scribble over it as that next read would, and
// check that nothing the handler delivered, queued or recorded changed.

// scribble overwrites b the way the next frame read into it would.
func scribble(b []byte) {
	for i := range b {
		b[i] = 0xFF
	}
}

// bareHub is a hub's state without its goroutines: every peer is
// connected, and what the hub owes a peer stays owed until a test takes it
// (queued) or runs a writer pass.
func bareHub(t testing.TB, cfg Config) *hub {
	t.Helper()
	input := (&sim.Config{N: cfg.N, T: cfg.T, L: cfg.L, MsgBits: cfg.MsgBits, Seed: cfg.Seed}).ResolveInput()
	h := &hub{cfg: cfg, res: cfg.Resilience.withDefaults(), idle: time.Second, input: input,
		src: source.Wrap(source.NewTrusted(input), nil), start: time.Now(),
		expect: cfg.N, fates: make([]*sim.Fate, cfg.N), peers: make(map[sim.PeerID]*hubPeer),
		stop: make(chan struct{}), allDone: make(chan struct{})}
	if cfg.Mirrors.Enabled() {
		h.mirror = source.NewMirrored(input, cfg.Mirrors, cfg.N, h.src)
	}
	for i := 0; i < cfg.N; i++ {
		h.peers[sim.PeerID(i)] = &hubPeer{id: sim.PeerID(i), link: link{conn: newFrameConn(&recConn{discard: true}, 0)}}
	}
	return h
}

// queued takes the one frame the hub's call left owed to hp: what the next
// pass of its connection's writer would send.
func queued(t *testing.T, h *hub, hp *hubPeer) outFrame {
	t.Helper()
	frames, _ := h.collect(hp, hp.conn, nil)
	if len(frames) != 1 {
		t.Fatalf("%d frames owed, want 1", len(frames))
	}
	return frames[0]
}

// payloadOf is f's payload as the receiving end reads it, in a buffer of
// its own.
func payloadOf(f outFrame) []byte {
	_, _, p, _ := readFrame(bytes.NewReader(appendFrame(nil, f.kind, f.seq, f.p)))
	return p
}

// TestHubKeepsNoReadBuffer: route, answerQuery, answerMirrorQuery and
// markDone copy what they keep of the payload they were handed.
func TestHubKeepsNoReadBuffer(t *testing.T) {
	plan, err := source.ParseMirrorPlan("mirrors=2,byz=0,leaf=32,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	h := bareHub(t, Config{N: 4, T: 1, L: 4096, MsgBits: 256, Seed: 8, Mirrors: plan})
	src, dest := h.peers[0], h.peers[2]
	check := func(what string, before, after []byte) {
		t.Helper()
		if !bytes.Equal(before, after) {
			t.Errorf("%s changed when the read buffer was written over", what)
		}
	}

	body := marshalAppend(nil, broadcastSamples()[0])
	payload := append(binary.AppendUvarint(nil, uint64(dest.id)), body...)
	h.route(src, kMsg, payload)
	want := appendFrame(nil, kMsg, 1, numPayload(uint64(src.id), body))
	sent, kept := queued(t, h, dest), dest.out.unacked()[0]
	check("the routed MSG", want, appendFrame(nil, kMsg, 1, rawPayload(payloadOf(sent))))
	scribble(payload)
	check("the queued MSG", want, appendFrame(nil, sent.kind, sent.seq, sent.p))
	check("the MSG in the outbox", want, appendFrame(nil, kept.kind, kept.seq, kept.p))

	for _, answer := range []struct {
		name string
		call func(*hubPeer, *frameConn, []byte, time.Time)
	}{{"QREPLY", h.answerQuery}, {"QPROOF", h.answerMirrorQuery}} {
		payload := encodeQueryHeader(5, []int{100, 101, 102, 140})
		answer.call(src, src.conn, payload, time.Now())
		reply := queued(t, h, src)
		before := appendFrame(nil, reply.kind, reply.seq, reply.p)
		scribble(payload)
		check("the queued "+answer.name, before, appendFrame(nil, reply.kind, reply.seq, reply.p))
	}

	out := bitarray.FromBools([]bool{true, false, true, true, false})
	raw := out.Bytes()
	payload = append(binary.AppendUvarint(nil, uint64(len(raw))), raw...)
	h.markDone(src, payload)
	scribble(payload)
	if src.output == nil || !src.output.Equal(out) {
		t.Errorf("the recorded output is %v, want %v", src.output, out)
	}
}

// TestHubReusesQueryBuffer: the hub decodes a query's list into the buffer
// its connection keeps, so a later query of no more indices decodes into
// the same array, and what the hub sent for the earlier one stays as it
// was.
func TestHubReusesQueryBuffer(t *testing.T) {
	h := bareHub(t, Config{N: 2, T: 0, L: 4096, MsgBits: 64, Seed: 8})
	hp := h.peers[0]
	steps, run := make([]int, 300), make([]int, 200)
	for i := range steps {
		steps[i] = 3 * i
	}
	for i := range run {
		run[i] = 1000 + i
	}
	h.answerQuery(hp, hp.conn, encodeQueryHeader(1, steps), time.Now())
	first := queued(t, h, hp)
	sent := appendFrame(nil, first.kind, first.seq, first.p)
	buf := &hp.conn.indices[0]
	h.answerQuery(hp, hp.conn, encodeQueryHeader(2, run), time.Now())
	second := queued(t, h, hp)
	if &hp.conn.indices[0] != buf {
		t.Error("the second query's list was decoded into a new array")
	}
	if !bytes.Equal(sent, appendFrame(nil, first.kind, first.seq, first.p)) {
		t.Error("the first reply changed when the second query was decoded")
	}
	for _, f := range []struct {
		frame outFrame
		idx   []int
	}{{first, steps}, {second, run}} {
		payload := payloadOf(f.frame)
		_, count, hdrLen, _, _, ok := scanQuery(payload, h.cfg.L)
		if !ok || count != len(f.idx) {
			t.Fatalf("a reply's header does not scan to its %d indices", len(f.idx))
		}
		n, k := binary.Uvarint(payload[hdrLen:])
		bits, err := bitarray.FromBytes(payload[hdrLen+k : hdrLen+k+int(n)])
		if err != nil {
			t.Fatal(err)
		}
		for j, i := range f.idx {
			if bits.Get(j) != h.input.Get(i) {
				t.Fatalf("reply bit %d of a %d-index query is not X[%d]", j, len(f.idx), i)
			}
		}
	}
}

// TestClientKeepsNoReadBuffer: what handleFrame delivers to the protocol or
// records for a MSG, QREPLY, QPROOF, QERR or ROOT frame, and what
// awaitResume takes from a RESUME, does not change when the payload it was
// handed is written over.
func TestClientKeepsNoReadBuffer(t *testing.T) {
	plan, err := source.ParseMirrorPlan("mirrors=2,byz=0,leaf=32,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	h := bareHub(t, Config{N: 4, T: 1, L: 4096, MsgBits: 256, Seed: 8, Mirrors: plan})
	rec := &recorder{}
	st := &sim.PeerStats{}
	c := &client{cfg: &h.cfg, id: 1, impl: rec, start: time.Now(), link: link{conn: newFrameConn(&recConn{discard: true}, 0)},
		q: qplane.NewRemoteTier(h.cfg.L, h.cfg.Seed, source.Policy{}).NewPlane(1, st, false, nil), stats: st,
		mparams: h.mirror.Params()}

	root := h.mirror.Root()
	payload := bytes.Clone(root[:])
	c.handleFrame(kRoot, 0, payload)
	scribble(payload)
	if !c.rootKnown || c.root != root {
		t.Error("the recorded root changed when the read buffer was written over")
	}

	m := broadcastSamples()[0]
	payload = marshalAppend(binary.AppendUvarint(nil, 3), m)
	c.handleFrame(kMsg, 1, payload)
	scribble(payload)
	if len(rec.msgs) != 1 || rec.from[0] != 3 || !bytes.Equal(marshalAppend(nil, rec.msgs[0]), marshalAppend(nil, m)) {
		t.Error("the delivered message changed when the read buffer was written over")
	}

	// A reply of each kind, from the hub's own answer to the client's query,
	// numbered on the reliable stream after the MSG.
	seq := uint64(1)
	for i, answer := range []struct {
		kind byte
		call func(*hubPeer, *frameConn, []byte, time.Time)
	}{{kQReply, h.answerQuery}, {kQProof, h.answerMirrorQuery}} {
		idx := []int{200, 201, 202, 230, 231}
		c.Query(7, idx)
		hp := h.peers[c.id]
		answer.call(hp, hp.conn, encodeQueryHeader(7, idx), time.Now())
		payload := payloadOf(queued(t, h, h.peers[c.id]))
		seq++
		c.handleFrame(answer.kind, seq, payload)
		scribble(payload)
		if len(rec.replies) != i+1 {
			t.Fatalf("%s: %d replies delivered, want %d", kindName(answer.kind), len(rec.replies), i+1)
		}
		got := rec.replies[i]
		want := bitarray.New(len(idx))
		for j, i := range idx {
			want.Set(j, h.input.Get(i))
		}
		if got.Tag != 7 || !slices.Equal(got.Indices, idx) || !got.Bits.Equal(want) {
			t.Errorf("%s: the delivered reply changed when the read buffer was written over", kindName(answer.kind))
		}
	}

	idx := []int{9, 10, 11}
	c.Query(2, idx)
	hdr := encodeQueryHeader(2, idx)
	payload = append(bytes.Clone(hdr), byte(source.KindOutage))
	seq++
	c.handleFrame(kQErr, seq, payload)
	pq := c.owed(qkeyOfHeader(2, hdr), hdr)
	if c.q.Settle(0); pq == nil || pq.state != backoff || c.stats.SourceFailures != 1 {
		t.Fatal("the QERR was not recorded against its query")
	}
	deadline := pq.deadline
	scribble(payload)
	if pq.state != backoff || !pq.deadline.Equal(deadline) || !bytes.Equal(pq.payload, hdr) || !slices.Equal(pq.call.Fetch, idx) {
		t.Error("the query's recorded state changed when the read buffer was written over")
	}

	segment := appendFrame(nil, kResume, 0, rawPayload(binary.AppendUvarint(binary.AppendUvarint(nil, 70), 40)))
	fc := newFrameConn(&recConn{src: bytes.NewReader(segment)}, 0)
	if err := c.awaitResume(fc); err != nil {
		t.Fatal(err)
	}
	scribble(fc.kept)
	if c.out.nextSeq != 70 || c.recv.cumAck() != 40 {
		t.Errorf("after RESUME and a written-over buffer: nextSeq %d, cumAck %d, want 70, 40", c.out.nextSeq, c.recv.cumAck())
	}
}
