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

func TestDedupWindow(t *testing.T) {
	var d dedupWindow
	if !d.admit(1) || d.admit(1) {
		t.Fatal("first admit should pass, duplicate should not")
	}
	if !d.admit(dedupWindowSize + 10) {
		t.Fatal("jump ahead should pass")
	}
	if d.admit(2) {
		t.Fatal("seq far below the window must be treated as duplicate")
	}
	// Memory stays bounded even across a long stream.
	for s := uint64(2); s < 5*dedupWindowSize; s += 2 {
		d.admit(s)
	}
	if len(d.seen) > 2*dedupWindowSize {
		t.Fatalf("dedup window grew unbounded: %d entries", len(d.seen))
	}
}

func TestOutboxAckAndRetransmit(t *testing.T) {
	var o outbox
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
	o.ackTo(2)
	due = o.takeDue(now.Add(time.Second), now.Add(time.Second))
	if len(due) != 1 || due[0].seq != 3 || due[0].attempt != 2 {
		t.Fatalf("post-ack takeDue = %+v", due)
	}
	o.markAllDue()
	if due := o.takeDue(now, now.Add(-time.Hour)); len(due) != 1 {
		t.Fatalf("markAllDue did not rearm: %v", due)
	}
	o.ackTo(3)
	if !o.empty() {
		t.Fatal("outbox not drained by cumulative ack")
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

func newTestHub(t *testing.T, cfg Config) *hub {
	t.Helper()
	input := (&sim.Config{N: cfg.N, T: cfg.T, L: cfg.L, MsgBits: cfg.MsgBits, Seed: cfg.Seed}).ResolveInput()
	h, err := newHub(cfg, input, newNetMetrics(&cfg, time.Now()))
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
	h := newTestHub(t, Config{N: 1, T: 0, L: 64, MsgBits: 64, Seed: 1, IdleTimeout: idle})
	conn, err := net.Dial("tcp", h.shards[0].addr)
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
	h := newTestHub(t, Config{N: 2, T: 0, L: 64, MsgBits: 64, Seed: 2, IdleTimeout: time.Second})
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
		conn, err := net.Dial("tcp", h.shards[0].addr)
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
	conn, err := net.Dial("tcp", h.shards[0].addr)
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
		tag, indices, _, ok := decodeQuery(payload, 64)
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

// runAskOnce runs one client, whose protocol is an askOnce for (tag, idx),
// against the hub at addr and returns the reply the protocol was handed.
func runAskOnce(t *testing.T, addr string, tag int, idx []int) (sim.QueryReply, *clientStats) {
	t.Helper()
	peer := &askOnce{tag: tag, idx: idx, got: make(chan sim.QueryReply, 8)}
	cfg := &Config{N: 1, L: 64, MsgBits: 64, Seed: 1, IdleTimeout: 5 * time.Second,
		Resilience: Resilience{QueryTimeout: 40 * time.Millisecond},
		NewPeer:    func(sim.PeerID) sim.Peer { return peer }}
	st := &clientStats{}
	done := make(chan error, 1)
	go func() {
		_, err := runIncarnation(cfg, 0, addr, st, nil, nil, nil, false)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("client failed: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("client never finished")
	}
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
	if len(seen) < 2 || st.queryRetries < 1 {
		t.Fatalf("hub saw %d queries, client counted %d retries: the foreign reply settled the query", len(seen), st.queryRetries)
	}
	for _, hdr := range seen {
		if !bytes.Equal(hdr, encodeQueryHeader(2, idx)) {
			t.Fatalf("a retry is not the identical QUERY frame: %x", hdr)
		}
	}
	if st.dupsDeduped < 1 {
		t.Error("the foreign reply was not counted as nobody's")
	}
}

// TestFallbackRetryChargesOnce drives the hub through one logical query's
// worst path — QUERY, a forged QPROOF, QUERYSRC, silence, the QUERYSRC
// retry — and checks the hub charges its bits into Q once, echoes the
// request's header bytes verbatim every time, and charges a second
// logical query separately.
func TestFallbackRetryChargesOnce(t *testing.T) {
	plan, err := source.ParseMirrorPlan("mirrors=3,byz=3,behavior=forge,seed=4")
	if err != nil {
		t.Fatal(err)
	}
	h := newTestHub(t, Config{N: 1, T: 0, L: 256, MsgBits: 64, Seed: 5, Mirrors: plan, IdleTimeout: 5 * time.Second})
	conn, err := net.Dial("tcp", h.shards[0].addr)
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
			k, _, payload, err := fc.readFrame()
			if err != nil {
				t.Fatalf("no %s for %s: %v", kindName(want), kindName(kind), err)
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
	proof, ok := decodeProofReply(ask(kQuery, hdr, kQProof)[len(hdr):])
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
	charged := func() (bits, calls int) {
		hp := h.peers[0]
		hp.mu.Lock()
		defer hp.mu.Unlock()
		return hp.queryBits, hp.queryCalls
	}
	if bits, calls := charged(); bits != len(idx) || calls != 1 {
		t.Fatalf("one logical query charged %d bits in %d calls, want %d in 1", bits, calls, len(idx))
	}
	ask(kQuerySrc, encodeQueryHeader(4, idx[:10]), kQReply)
	if bits, calls := charged(); bits != len(idx)+10 || calls != 2 {
		t.Fatalf("two logical queries charged %d bits in %d calls, want %d in 2", bits, calls, len(idx)+10)
	}
}

// TestRejectUnknownPeer: connections for out-of-range or absent ids get a
// REJECT frame, not silence, so clients stop redialing.
func TestRejectUnknownPeer(t *testing.T) {
	h := newTestHub(t, Config{N: 2, T: 1, L: 64, MsgBits: 64, Seed: 3,
		Absent: []sim.PeerID{1}, IdleTimeout: time.Second})
	for _, id := range []uint64{1, 17} {
		conn, err := net.Dial("tcp", h.shards[0].addr)
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
