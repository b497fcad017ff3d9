package netrt

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bitarray"
	"repro/internal/merkle"
	"repro/internal/protocols/crashk"
	"repro/internal/qplane"
	"repro/internal/sim"
	"repro/internal/source"
)

// TestFaultPlanDeterministic verifies the acceptance requirement that the
// fault schedule is a pure function of the plan seed: equal plans make
// identical per-frame decisions, and a different seed lands a different
// landscape somewhere.
func TestFaultPlanDeterministic(t *testing.T) {
	mk := func(seed int64) *FaultPlan {
		return &FaultPlan{Seed: seed, Drop: 0.3, Dup: 0.2, Delay: 5 * time.Millisecond, Reorder: 0.2}
	}
	a, b, c := mk(7), mk(7), mk(8)
	diff := 0
	for from := sim.PeerID(-1); from < 4; from++ {
		for to := sim.PeerID(0); to < 4; to++ {
			for seq := uint64(1); seq <= 20; seq++ {
				for attempt := 0; attempt < 3; attempt++ {
					if a.dropFrame(from, to, seq, attempt, 0) != b.dropFrame(from, to, seq, attempt, 0) ||
						a.dupFrame(from, to, seq, attempt) != b.dupFrame(from, to, seq, attempt) ||
						a.delayFor(from, to, seq, attempt) != b.delayFor(from, to, seq, attempt) {
						t.Fatalf("same seed diverged at %d→%d seq=%d attempt=%d", from, to, seq, attempt)
					}
					if a.dropFrame(from, to, seq, attempt, 0) != c.dropFrame(from, to, seq, attempt, 0) {
						diff++
					}
				}
			}
		}
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical drop schedules")
	}
}

// TestFaultPlanAttemptIndependence: retransmission attempts of the same
// frame must roll fresh decisions, or a dropped frame would be dropped
// forever and no retry budget could save liveness.
func TestFaultPlanAttemptIndependence(t *testing.T) {
	p := &FaultPlan{Seed: 3, Drop: 0.5}
	for from := sim.PeerID(0); from < 8; from++ {
		for seq := uint64(1); seq <= 16; seq++ {
			if !p.dropFrame(from, 0, seq, 0, 0) {
				continue
			}
			survived := false
			for attempt := 1; attempt < 64; attempt++ {
				if !p.dropFrame(from, 0, seq, attempt, 0) {
					survived = true
					break
				}
			}
			if !survived {
				t.Fatalf("frame %d→0 seq=%d dropped on 64 consecutive attempts at 50%%", from, seq)
			}
		}
	}
}

func TestPartitionWindow(t *testing.T) {
	p := &FaultPlan{Seed: 1, Partitions: []Partition{{
		A: []sim.PeerID{0, 1}, B: []sim.PeerID{2},
		Start: 10 * time.Millisecond, Heal: 20 * time.Millisecond,
	}}}
	cases := []struct {
		from, to sim.PeerID
		at       time.Duration
		want     bool
	}{
		{0, 2, 15 * time.Millisecond, true},
		{2, 1, 15 * time.Millisecond, true},      // cuts are bidirectional
		{0, 1, 15 * time.Millisecond, false},     // same side
		{0, 2, 5 * time.Millisecond, false},      // before Start
		{0, 2, 25 * time.Millisecond, false},     // healed
		{srcID, 2, 15 * time.Millisecond, false}, // source is never cut off
	}
	for _, c := range cases {
		if got := p.partitioned(c.from, c.to, c.at); got != c.want {
			t.Errorf("partitioned(%d, %d, %v) = %v, want %v", c.from, c.to, c.at, got, c.want)
		}
	}
}

func TestStallWindow(t *testing.T) {
	p := &FaultPlan{Seed: 4, StallEvery: 40 * time.Millisecond, StallFor: 10 * time.Millisecond}
	period := p.StallEvery + p.StallFor
	sawOpen, sawStalled := false, false
	for at := time.Duration(0); at < 2*period; at += time.Millisecond {
		r := p.stallRemaining(0, at)
		if r < 0 || r > p.StallFor {
			t.Fatalf("stallRemaining = %v outside [0, %v]", r, p.StallFor)
		}
		if r == 0 {
			sawOpen = true
		} else {
			sawStalled = true
		}
	}
	if !sawOpen || !sawStalled {
		t.Fatalf("expected both open and stalled phases over two periods (open=%v stalled=%v)", sawOpen, sawStalled)
	}
}

func TestBackoffDelayCappedAndJittered(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	base, max := 10*time.Millisecond, 200*time.Millisecond
	for attempt := 0; attempt < 30; attempt++ {
		d := backoffDelay(rng, attempt, base, max)
		if d < base/2 || d > max+max/2 {
			t.Fatalf("attempt %d: delay %v outside [base/2, 1.5×max]", attempt, d)
		}
	}
}

func newTestHub(t *testing.T, spec *sim.Spec, net Net) *hub {
	t.Helper()
	input := spec.Config.ResolveInput()
	start := time.Now()
	h, err := newHub(spec, &net, input, newNetMetrics(spec), newEvents(spec, start), start)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.close)
	return h
}

// TestIdleDeadlineDetectsDeadLink: a connection that goes silent (no
// frames, no heartbeats) must be closed within roughly the idle window.
func TestIdleDeadlineDetectsDeadLink(t *testing.T) {
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
	// Send nothing further: the hub keeps pinging us, but our silence
	// must trip its read deadline. Read until the hub hangs up.
	start := time.Now()
	conn.SetReadDeadline(start.Add(5 * idle))
	for {
		if _, _, _, err := fc.readFrame(); err != nil {
			break
		}
	}
	if waited := time.Since(start); waited > 3*idle {
		t.Fatalf("dead link lingered %v, want < %v", waited, 3*idle)
	}
}

// TestHostileFramesCannotPanicHub feeds the hub malformed frames —
// corrupt lengths, truncated sequence varints, hostile query counts —
// and verifies it stays up and keeps serving well-formed peers.
func TestHostileFramesCannotPanicHub(t *testing.T) {
	h := newTestHub(t, &sim.Spec{Config: sim.Config{N: 2, T: 0, L: 64, MsgBits: 64, Seed: 2}}, Net{IdleTimeout: time.Second})
	hostile := [][]byte{
		{0, 0, 0, 0},             // length 0 (< kind+seq minimum)
		{0xFF, 0xFF, 0xFF, 0xFF}, // length 4 GiB (> maxFrame)
		{0, 0, 0, 2, kMsg, 0x80}, // seq uvarint truncated
		{0, 0, 0, 1, 0x7F},       // undersized frame
		// hello(id 0), then a query whose count field claims 2^40 indices
		{
			0, 0, 0, 3, kHello, 0x00, 0x00, // [len][kind][seq=0][id=0]
			0, 0, 0, 9, kQuery, 0x01, // [len][kind][seq=1]
			0x00,                               // tag 0
			0x80, 0x80, 0x80, 0x80, 0x80, 0x20, // count uvarint = 2^40
		},
	}
	for i, raw := range hostile {
		conn, err := net.Dial("tcp", h.addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(raw); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		// The hub must drop (or ignore) the garbage without dying.
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		for in := newFrameConn(conn, 0); ; {
			if _, _, _, err := in.readFrame(); err != nil {
				break
			}
		}
		conn.Close()
	}
	// The hub must still serve a well-formed peer.
	conn, err := net.Dial("tcp", h.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fc := newFrameConn(conn, 0)
	if err := fc.writeFrame(kHello, 0, numPayload(1, nil)); err != nil {
		t.Fatal(err)
	}
	if err := fc.writeFrame(kQuery, 1, rawPayload(encodeQueryHeader(0, []int{0, 1, 2}))); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		kind, _, payload, err := fc.readFrame()
		if err != nil {
			t.Fatalf("no query reply after hostile traffic: %v", err)
		}
		if kind != kQReply {
			continue
		}
		tag, indices, _, ok := decodeQuery(nil, payload, 64)
		if !ok || tag != 0 || len(indices) != 3 {
			t.Fatalf("mangled reply: ok=%v tag=%d indices=%v", ok, tag, indices)
		}
		return
	}
}

// scriptedHub is the far end of a client's connection, played by the test:
// it reads the HELLO like any frame, acks every reliable frame so the
// client can finish, and hands each QUERY and QUERYSRC payload to onQuery,
// which answers — or does not — through reply. onQuery runs off the test
// goroutine: t.Error, not t.Fatal.
func scriptedHub(t *testing.T, onQuery func(kind byte, payload []byte, reply func(kind byte, payload []byte))) (addr string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var replySeq atomic.Uint64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				fc := newFrameConn(conn, 0)
				reply := func(kind byte, payload []byte) {
					_ = fc.writeFrame(kind, replySeq.Add(1), rawPayload(payload))
				}
				for {
					kind, seq, payload, err := fc.readFrame()
					if err != nil {
						return
					}
					if seq > 0 { // TCP keeps the order, so the newest is the cumulative ack
						_ = fc.writeFrame(kAck, 0, numPayload(seq, nil))
					}
					if kind == kQuery || kind == kQuerySrc {
						onQuery(kind, bytes.Clone(payload), reply) // onQuery may keep it
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// askOnce is a protocol that asks the source one query and terminates on
// its first reply, reading one bit per index as every protocol does.
type askOnce struct {
	tag int
	idx []int
	ctx sim.Context
	got chan sim.QueryReply // buffered: a second delivery must not block the loop
}

func (p *askOnce) Init(ctx sim.Context) {
	p.ctx = ctx
	ctx.Query(p.tag, append([]int(nil), p.idx...))
}

func (p *askOnce) OnMessage(sim.PeerID, sim.Message) {}

func (p *askOnce) OnQueryReply(r sim.QueryReply) {
	out := bitarray.New(len(r.Indices))
	for j := range r.Indices {
		out.Set(j, r.Bits.Get(j))
	}
	p.got <- r
	p.ctx.Output(out)
	p.ctx.Terminate()
}

// runPeer runs one client, peer 0 of an L-bit array, whose protocol is
// peer and whose query plane follows pol, against the hub at addr until it
// finishes, and returns its stats.
func runPeer(t *testing.T, addr string, l int, peer sim.Peer, pol source.Policy) *sim.PeerStats {
	t.Helper()
	spec := &sim.Spec{Config: sim.Config{N: 1, L: l, MsgBits: 64, Seed: 1}, SourcePolicy: pol,
		NewPeer: func(sim.PeerID) sim.Peer { return peer }}
	net := &Net{IdleTimeout: 5 * time.Second, Resilience: Resilience{QueryTimeout: 40 * time.Millisecond}}
	st := &sim.PeerStats{}
	q := qplane.NewRemoteTier(l, spec.Config.Seed, pol).NewPlane(0, st, false, nil)
	done := make(chan error, 1)
	go func() { done <- runClient(spec, net, 0, nil, spec.NewPeer, addr, q, st, nil, nil, time.Now(), nil) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("client failed: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("client never finished")
	}
	return st
}

// runAskOnce runs one client, whose protocol is an askOnce for (tag, idx),
// against the hub at addr and returns the reply the protocol was handed.
func runAskOnce(t *testing.T, addr string, tag int, idx []int) (sim.QueryReply, *sim.PeerStats) {
	t.Helper()
	peer := &askOnce{tag: tag, idx: idx, got: make(chan sim.QueryReply, 8)}
	st := runPeer(t, addr, 64, peer, source.Policy{})
	if len(peer.got) != 1 {
		t.Fatalf("protocol was handed %d replies, want 1", len(peer.got))
	}
	return <-peer.got, st
}

// qreply is a QREPLY payload: the header as given, then the bits.
func qreply(hdr []byte, vals ...bool) []byte {
	raw := bitarray.FromBools(vals).Bytes()
	out := append([]byte(nil), hdr...)
	out = binary.AppendUvarint(out, uint64(len(raw)))
	return append(out, raw...)
}

func checkReply(t *testing.T, got sim.QueryReply, tag int, idx []int, vals []bool) {
	t.Helper()
	if got.Tag != tag || !slices.Equal(got.Indices, idx) || !got.Bits.Equal(bitarray.FromBools(vals)) {
		t.Fatalf("reply (tag %d, indices %v, bits %s), want (tag %d, indices %v, bits %s)",
			got.Tag, got.Indices, got.Bits, tag, idx, bitarray.FromBools(vals))
	}
}

// TestHostileQReplyCannotPanicClient is the client's half of the test
// above: a QREPLY whose bit count is not its index count — short, long or
// empty — is dropped like any other malformed frame, where it used to
// reach the protocol and panic the process on the first missing bit. The
// well-formed reply behind them is still delivered.
func TestHostileQReplyCannotPanicClient(t *testing.T) {
	idx, vals := []int{3, 4, 5, 9}, []bool{true, false, true, true}
	addr := scriptedHub(t, func(_ byte, hdr []byte, reply func(byte, []byte)) {
		reply(kQReply, qreply(hdr, true, true))                                   // short
		reply(kQReply, qreply(hdr, false, false, false, false, true, true, true)) // long
		reply(kQReply, qreply(hdr))                                               // empty
		reply(kQReply, qreply(hdr, vals...))
	})
	got, _ := runAskOnce(t, addr, 2, idx)
	checkReply(t, got, 2, idx, vals)
}

// TestForeignHeaderReplyIsNotDelivered: one reply, one owner. A reply that
// echoes a different well-formed header for the same tag — other indices,
// same count — answers no query of this client: it is not delivered, the
// query stays owed, and the retry, which must be the identical QUERY
// frame, completes it from the client's own index list.
func TestForeignHeaderReplyIsNotDelivered(t *testing.T) {
	idx, vals := []int{3, 4, 5, 9}, []bool{true, false, true, true}
	var mu sync.Mutex
	var seen [][]byte
	addr := scriptedHub(t, func(kind byte, hdr []byte, reply func(byte, []byte)) {
		mu.Lock()
		seen = append(seen, hdr)
		first := len(seen) == 1
		mu.Unlock()
		if kind != kQuery {
			t.Errorf("query arrived as %s", kindName(kind))
		}
		if first {
			reply(kQReply, qreply(encodeQueryHeader(2, []int{10, 11, 12, 13}), false, true, false, false))
			return
		}
		reply(kQReply, qreply(hdr, vals...))
	})
	got, st := runAskOnce(t, addr, 2, idx)
	checkReply(t, got, 2, idx, vals)
	mu.Lock()
	defer mu.Unlock()
	if len(seen) < 2 || st.QueryRetries < 1 {
		t.Fatalf("hub saw %d queries, client counted %d retries: the foreign reply settled the query", len(seen), st.QueryRetries)
	}
	for _, hdr := range seen {
		if !bytes.Equal(hdr, encodeQueryHeader(2, idx)) {
			t.Fatalf("a retry is not the identical QUERY frame: %x", hdr)
		}
	}
	if st.DupFramesDropped < 1 {
		t.Error("the foreign reply was not counted as nobody's")
	}
}

// TestFallbackRetryChargesOnce drives one logical query down its worst
// path — QUERY, a forged QPROOF, QUERYSRC, silence, the QUERYSRC retry.
// The hub echoes the request's header bytes verbatim every time and
// answers the retry as it answered the first; a client sent down the same
// path by a scripted hub replaying those answers charges the query into Q
// once, at Query, and a second logical query separately.
func TestFallbackRetryChargesOnce(t *testing.T) {
	plan, err := source.ParseMirrorPlan("mirrors=3,byz=3,behavior=forge,seed=4")
	if err != nil {
		t.Fatal(err)
	}
	h := newTestHub(t, &sim.Spec{Config: sim.Config{N: 1, T: 0, L: 256, MsgBits: 64, Seed: 5}, Mirrors: plan}, Net{IdleTimeout: 5 * time.Second})
	conn, err := net.Dial("tcp", h.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fc := newFrameConn(conn, 0)
	if err := fc.writeFrame(kHello, 0, numPayload(0, nil)); err != nil {
		t.Fatal(err)
	}
	idx := make([]int, 128)
	for i := range idx {
		idx[i] = 64 + i
	}
	hdr := encodeQueryHeader(4, idx)
	seq := uint64(0)
	ask := func(kind byte, hdr []byte, want byte) []byte {
		t.Helper()
		seq++
		if err := fc.writeFrame(kind, seq, rawPayload(hdr)); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		for {
			k, s, payload, err := fc.readFrame()
			if err != nil {
				t.Fatalf("no %s for %s: %v", kindName(want), kindName(kind), err)
			}
			if s > 0 { // a reply on the hub's reliable stream: ack it, or it comes again
				if err := fc.writeFrame(kAck, 0, numPayload(s, nil)); err != nil {
					t.Fatal(err)
				}
			}
			if k != want {
				continue // ROOT, acks, pings
			}
			if !bytes.HasPrefix(payload, hdr) {
				t.Fatalf("%s does not echo the request header verbatim", kindName(want))
			}
			return bytes.Clone(payload) // the next read reuses its bytes
		}
	}
	forged := ask(kQuery, hdr, kQProof)
	proof, ok := decodeProofReply(forged[len(hdr):])
	if !ok {
		t.Fatal("malformed QPROOF body")
	}
	if merkle.Verify(h.mirror.Root(), h.mirror.Params(), proof.LeafLo, proof.LeafHi, proof.Bits, proof.Proof) {
		t.Fatal("the all-forging fleet served a proof that verifies")
	}
	first := ask(kQuerySrc, hdr, kQReply)
	again := ask(kQuerySrc, hdr, kQReply) // the client's retry after a silence
	if !bytes.Equal(first, again) {
		t.Fatal("the retry drew a different reply")
	}
	hdr10 := encodeQueryHeader(4, idx[:10])
	second := ask(kQuerySrc, hdr10, kQReply)

	var mu sync.Mutex
	var trail []string
	addr := scriptedHub(t, func(kind byte, p []byte, reply func(byte, []byte)) {
		mu.Lock()
		trail = append(trail, kindName(kind))
		silent := kind == kQuerySrc && len(trail) == 2
		mu.Unlock()
		switch {
		case bytes.Equal(p, hdr10):
			reply(kQReply, second)
		case kind == kQuery:
			reply(kQProof, forged)
		case !silent:
			reply(kQReply, first)
		}
	})
	peer := &askSeq{tag: 4, asks: [][]int{idx, idx[:10]}}
	st := runPeer(t, addr, 256, peer, source.Policy{})
	mu.Lock()
	defer mu.Unlock()
	if want := []string{"QUERY", "QUERYSRC", "QUERYSRC", "QUERY"}; !slices.Equal(trail, want) {
		t.Fatalf("the hub saw %v, want %v", trail, want)
	}
	if st.ProofFailures != 1 || st.FallbackQueries != 1 || st.QueryRetries != 1 {
		t.Errorf("proof failures %d, fallbacks %d, retries %d, want 1, 1, 1",
			st.ProofFailures, st.FallbackQueries, st.QueryRetries)
	}
	if st.QueryBits != len(idx)+10 || st.QueryCalls != 2 {
		t.Fatalf("two logical queries charged %d bits in %d calls, want %d in 2", st.QueryBits, st.QueryCalls, len(idx)+10)
	}
	if peer.replies != 2 {
		t.Fatalf("protocol was handed %d replies, want 2", peer.replies)
	}
}

// TestLateReplyServesParkedCall: a reply slowed past the silence deadline
// can arrive after the breaker parked its call. The call still takes it:
// the protocol gets the reply, the call leaves the plane's queue, and the
// success the reply carries closes the breaker and re-sends the one call
// still parked — unless the protocol has terminated, when nothing is
// delivered or re-sent.
func TestLateReplyServesParkedCall(t *testing.T) {
	for _, terminated := range []bool{false, true} {
		spec := &sim.Spec{Config: sim.Config{N: 2, T: 0, L: 256, MsgBits: 64, Seed: 8}}
		h := bareHub(t, spec)
		rec, st := &recorder{}, &sim.PeerStats{}
		policy := source.Policy{BreakerThreshold: 1, BreakerCooldown: 60}
		c := &client{model: spec.Config, res: h.res, id: 1, impl: rec, start: time.Now(),
			link: link{conn: newFrameConn(&recConn{discard: true}, 0)}, stats: st,
			q: qplane.NewRemoteTier(spec.Config.L, spec.Config.Seed, policy).NewPlane(1, st, false, nil)}
		a, b := []int{1, 2, 3}, []int{40, 41}
		hdrA, hdrB := encodeQueryHeader(1, a), encodeQueryHeader(2, b)
		c.Query(1, slices.Clone(a))
		c.Query(2, slices.Clone(b))
		// a is refused: the breaker opens and parks it.
		c.handleFrame(kQErr, 1, append(bytes.Clone(hdrA), byte(source.KindOutage)))
		// b falls silent past its deadline and fails as a lost reply; once
		// its backoff ends, the open breaker parks it too.
		pqA, pqB := c.queries[0], c.queries[1]
		c.housekeep(pqB.deadline, time.Hour) // silent: b backs off
		c.housekeep(pqB.deadline, time.Hour) // its backoff ends
		if pqA.state != parked || pqB.state != parked || c.q.Parked() != 2 {
			t.Fatalf("states %d and %d with %d parked, want both calls parked", pqA.state, pqB.state, c.q.Parked())
		}
		if terminated {
			c.Terminate()
		}
		// b's reply comes in after all.
		h.answerQuery(h.peers[1], h.peers[1].conn, hdrB, time.Now())
		c.handleFrame(kQReply, 2, payloadOf(queued(t, h, h.peers[1])))
		if st.DupFramesDropped != 0 || c.q.Parked() != 0 || len(c.queries) != 1 || c.queries[0] != pqA {
			t.Fatalf("terminated=%v: %d duplicates, %d parked, %d pending; want b settled and a flushed",
				terminated, st.DupFramesDropped, c.q.Parked(), len(c.queries))
		}
		if terminated {
			if len(rec.replies) != 0 || pqA.state != parked || st.QueryRetries != 0 {
				t.Errorf("after Terminate: %d replies delivered, a in state %d, %d retries; want nothing",
					len(rec.replies), pqA.state, st.QueryRetries)
			}
			continue
		}
		if len(rec.replies) != 1 || rec.replies[0].Tag != 2 || !slices.Equal(rec.replies[0].Indices, b) {
			t.Fatalf("protocol got %d replies, want b's", len(rec.replies))
		}
		for j, i := range b {
			if rec.replies[0].Bits.Get(j) != h.input.Get(i) {
				t.Fatalf("reply bit %d is wrong", j)
			}
		}
		if pqA.state != sent || st.QueryRetries != 1 {
			t.Errorf("a in state %d after %d retries, want it re-sent once", pqA.state, st.QueryRetries)
		}
	}
}

// askSeq asks its queries one after another, each once the previous one's
// reply arrived, and terminates after the last reply.
type askSeq struct {
	tag     int
	asks    [][]int
	ctx     sim.Context
	replies int
}

func (p *askSeq) Init(ctx sim.Context) {
	p.ctx = ctx
	ctx.Query(p.tag, append([]int(nil), p.asks[0]...))
}

func (p *askSeq) OnMessage(sim.PeerID, sim.Message) {}

func (p *askSeq) OnQueryReply(r sim.QueryReply) {
	if p.replies++; p.replies < len(p.asks) {
		p.ctx.Query(p.tag, append([]int(nil), p.asks[p.replies]...))
		return
	}
	p.ctx.Output(bitarray.New(p.ctx.L()))
	p.ctx.Terminate()
}

// TestRejectUnknownPeer: connections for out-of-range or absent ids get a
// REJECT frame, not silence, so clients stop redialing.
func TestRejectUnknownPeer(t *testing.T) {
	h := newTestHub(t, &sim.Spec{
		Config: sim.Config{N: 2, T: 1, L: 64, MsgBits: 64, Seed: 3},
		Faults: sim.Faults{Fates: sim.Crashes([]sim.PeerID{1}, 0)},
	}, Net{IdleTimeout: time.Second})
	for _, id := range []uint64{1, 17} {
		conn, err := net.Dial("tcp", h.addr)
		if err != nil {
			t.Fatal(err)
		}
		fc := newFrameConn(conn, 0)
		if err := fc.writeFrame(kHello, 0, numPayload(id, nil)); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		kind, _, _, err := fc.readFrame()
		if err != nil || kind != kReject {
			t.Fatalf("hello(%d): got kind=%d err=%v, want REJECT", id, kind, err)
		}
		conn.Close()
	}
}

// lossProbe is the protocol of TestChaosLostFramesResentAtNextFrame. Peer
// 0 asks the source for each bit of the array in a query of its own and
// sends peer 1 four messages; peer 1 asks for the whole array once all
// four have arrived. Each outputs the array and terminates.
type lossProbe struct {
	ctx        sim.Context
	out        *bitarray.Array
	msgs, bits int
}

const lossProbeMsgs = 4

func (p *lossProbe) Init(ctx sim.Context) {
	p.ctx = ctx
	p.out = bitarray.New(ctx.L())
	if ctx.ID() != 0 {
		return
	}
	for i := 0; i < ctx.L(); i++ {
		ctx.Query(i, []int{i})
	}
	for i := 0; i < lossProbeMsgs; i++ {
		ctx.Send(1, &crashk.Full{Values: bitarray.New(ctx.L())})
	}
}

func (p *lossProbe) OnMessage(sim.PeerID, sim.Message) {
	if p.msgs++; p.msgs == lossProbeMsgs {
		all := make([]int, p.ctx.L())
		for i := range all {
			all[i] = i
		}
		p.ctx.Query(0, all)
	}
}

func (p *lossProbe) OnQueryReply(r sim.QueryReply) {
	for j, i := range r.Indices {
		p.out.Set(i, r.Bits.Get(j))
	}
	if p.bits += len(r.Indices); p.bits == p.ctx.L() {
		p.ctx.Output(p.out)
		p.ctx.Terminate()
	}
}

// TestChaosLostFramesResentAtNextFrame: the plan drops the first frame of
// each of the hub's two streams — a QREPLY toward peer 0, a MSG toward
// peer 1 — and nothing else. With the RTO and the query timeout both at
// 10 s, each lost frame must be resent on the third repeat of its
// receiver's ack, which the frames behind it draw, and the run must finish
// well inside either clock with no query retried.
func TestChaosLostFramesResentAtNextFrame(t *testing.T) {
	const L = 4
	// Peer 0's stream is L replies from the source; peer 1's is the
	// messages from peer 0, then the reply to its one query. The seed is
	// the first to drop exactly the first frame of each, and not its
	// retransmission.
	streams := map[sim.PeerID][]sim.PeerID{0: {srcID, srcID, srcID, srcID}, 1: {0, 0, 0, 0, srcID}}
	plan := &FaultPlan{Drop: 0.3}
	for plan.Seed = 1; ; plan.Seed++ {
		ok := true
		for to, from := range streams {
			ok = ok && !plan.dropFrame(from[0], to, 1, 1, 0)
			for i, f := range from {
				ok = ok && plan.dropFrame(f, to, uint64(i+1), 0, 0) == (i == 0)
			}
		}
		if ok {
			break
		}
	}
	start := time.Now()
	res, err := Runner(Net{
		Faults:     plan,
		Resilience: Resilience{RTO: 10 * time.Second, QueryTimeout: 10 * time.Second},
	})(&sim.Spec{
		Config:   sim.Config{N: 2, T: 0, L: L, MsgBits: 64, Seed: 3},
		NewPeer:  func(sim.PeerID) sim.Peer { return &lossProbe{} },
		Deadline: 5,
	})
	if err != nil {
		t.Fatalf("plan seed %d: %v", plan.Seed, err)
	}
	took := time.Since(start)
	if !res.Correct {
		t.Fatalf("plan seed %d: incorrect: %v", plan.Seed, res)
	}
	for _, id := range []int{0, 1} {
		ps := res.PerPeer[id]
		if ps.PlanDropped != 1 {
			t.Errorf("peer %d: the plan dropped %d frames toward it, want 1", id, ps.PlanDropped)
		}
		if ps.QueryRetries != 0 {
			t.Errorf("peer %d: %d queries retried; the lost reply was not resent by the hub", id, ps.QueryRetries)
		}
	}
	if took > 2*time.Second {
		t.Errorf("the run took %v with a lost MSG and a lost QREPLY", took)
	}
}

// TestLaterKeepsNoDeliveryTimer: the hub keeps no timer of a delayed
// delivery, so a fired one, and the frame its closure holds, is not kept
// alive until the hub closes.
func TestLaterKeepsNoDeliveryTimer(t *testing.T) {
	const n = 40
	h := newTestHub(t, &sim.Spec{
		Config: sim.Config{N: 1, T: 0, L: 64, MsgBits: 64, Seed: 1},
	}, Net{IdleTimeout: 5 * time.Second, Faults: &FaultPlan{Seed: 2, Dup: 0.3, Delay: time.Millisecond, Reorder: 0.2}})
	conn, err := net.Dial("tcp", h.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fc := newFrameConn(conn, 0)
	if err := fc.writeFrame(kHello, 0, numPayload(0, nil)); err != nil {
		t.Fatal(err)
	}
	for q := 1; q <= n; q++ {
		if err := fc.writeFrame(kQuery, uint64(q), rawPayload(encodeQueryHeader(q, []int{q}))); err != nil {
			t.Fatal(err)
		}
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for answered := map[int]bool{}; len(answered) < n; {
		kind, _, payload, err := fc.readFrame()
		if err != nil {
			t.Fatalf("%d of %d queries answered: %v", len(answered), n, err)
		}
		if tag, _, _, _, _, ok := scanQuery(payload, 64); ok && kind == kQReply {
			answered[tag] = true
		}
	}
	h.mu.Lock()
	kept := len(h.timers)
	h.mu.Unlock()
	if kept != 0 {
		t.Errorf("after %d delayed replies the hub holds %d timers, want none", n, kept)
	}
}
