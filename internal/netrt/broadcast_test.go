package netrt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"testing"

	"repro/internal/bitarray"
	"repro/internal/intset"
	"repro/internal/protocols/crashk"
	"repro/internal/sim"
)

// sentFrame is one frame as the far end of the connection read it.
type sentFrame struct {
	kind    byte
	seq     uint64
	payload []byte
}

// pipeClient is a client on an in-memory connection: sent() runs a pass of
// the connection's writer, closes the client's end, and returns every
// frame the far end read.
func pipeClient(id sim.PeerID, n int, churn *sim.Fate) (c *client, sent func() []sentFrame) {
	near, far := net.Pipe()
	fc := newFrameConn(near, 0)
	c = &client{stats: &sim.PeerStats{}, model: sim.Config{N: n, MsgBits: 256}, id: id, link: link{conn: fc}, churn: churn}
	done := make(chan []sentFrame)
	go func() {
		var frames []sentFrame
		for in := newFrameConn(far, 0); ; {
			kind, seq, payload, err := in.readFrame()
			if err != nil {
				done <- frames
				return
			}
			// The payload lies in the reader's buffer until its next read.
			frames = append(frames, sentFrame{kind, seq, bytes.Clone(payload)})
		}
	}()
	return c, func() []sentFrame {
		c.pass(fc, &wbuf{})
		near.Close()
		return <-done
	}
}

func broadcastSamples() []sim.Message {
	var a, b intset.Builder
	for x := 3; x < 900; x += 2 + x%5 {
		a.Add(x)
		b.Add(x + 1000)
	}
	return []sim.Message{
		&crashk.Req2{Phase: 3, IdxBits: 11, Items: []crashk.Req2Item{{Q: 1, Indices: intset.Hold(a.Set())}, {Q: 4, Indices: intset.Hold(b.Set())}}},
		&crashk.Full{Values: bitarray.Random(rand.New(rand.NewSource(9)), 2048)},
	}
}

// TestBroadcastMatchesSends: Broadcast puts one BCAST frame on the
// connection — uvarint k, then the message encoded once — where k is the
// number of other peers its action ticks reached: all n − 1, or on a churn
// peer whose crash point falls inside the broadcast, as many as a Send loop
// sends to before it crashes; at k = 0 it writes nothing. Its ticks leave
// the action clock where the Send loop leaves it. Routed by the hub, that
// one frame leaves in the outbox of each of the first k other peers the MSG
// that the Send loop's frame to it leaves, byte for byte, all of them
// holding one copy of the body. The sender is charged the same M.
func TestBroadcastMatchesSends(t *testing.T) {
	const n, id = 6, sim.PeerID(2)
	spec := &sim.Spec{Config: sim.Config{N: n, T: 1, L: 2048, MsgBits: 256, Seed: 1}}
	for mi, m := range broadcastSamples() {
		encoded := marshalAppend(nil, m)
		// crashAfter < 0: no churn. Otherwise the action budget, from a
		// crash before the first send to one the broadcast never reaches.
		for crashAfter := -1; crashAfter <= n; crashAfter++ {
			label := fmt.Sprintf("message %d, CrashAfter %d", mi, crashAfter)
			churn := func() *sim.Fate {
				if crashAfter < 0 {
					return nil
				}
				return &sim.Fate{Peer: id, CrashAfter: crashAfter}
			}
			bc, bcSent := pipeClient(id, n, churn())
			bc.Broadcast(m)
			sc, scSent := pipeClient(id, n, churn())
			for i := 0; i < n; i++ {
				sc.Send(sim.PeerID(i), m) // Send drops i == id itself
			}
			got, want := bcSent(), scSent()
			if bc.actions != sc.actions || bc.crashed != sc.crashed {
				t.Fatalf("%s: Broadcast left actions=%d crashed=%v, the Send loop actions=%d crashed=%v",
					label, bc.actions, bc.crashed, sc.actions, sc.crashed)
			}
			if b, s := bc.stats, sc.stats; b.MsgsSent != s.MsgsSent || b.MsgBitsSent != s.MsgBitsSent {
				t.Fatalf("%s: Broadcast charged M=%d (%d bits), the Send loop M=%d (%d bits)",
					label, b.MsgsSent, b.MsgBitsSent, s.MsgsSent, s.MsgBitsSent)
			}

			k := n - 1
			if crashAfter >= 0 {
				k = min(crashAfter, n-1)
			}
			if len(want) != k {
				t.Fatalf("%s: the Send loop wrote %d frames, expected %d", label, len(want), k)
			}
			for j := range want {
				to := j
				if sim.PeerID(to) >= id {
					to++
				}
				wire := append(binary.AppendUvarint(nil, uint64(to)), encoded...)
				if want[j].kind != kMsg || want[j].seq != uint64(j+1) || !bytes.Equal(want[j].payload, wire) {
					t.Fatalf("%s: the Send loop's frame %d is (kind %d, seq %d, %d bytes), want a MSG to %d, seq %d, %d bytes",
						label, j, want[j].kind, want[j].seq, len(want[j].payload), to, j+1, len(wire))
				}
			}
			if k == 0 {
				if len(got) != 0 || !bc.out.empty() {
					t.Fatalf("%s: Broadcast to no one wrote %d frames and kept %d", label, len(got), len(bc.out.unacked()))
				}
				continue
			}
			bcast := append(binary.AppendUvarint(nil, uint64(k)), encoded...)
			if len(got) != 1 || got[0].kind != kBcast || got[0].seq != 1 || !bytes.Equal(got[0].payload, bcast) {
				t.Fatalf("%s: Broadcast wrote %d frames, want one BCAST, seq 1, naming %d recipients", label, len(got), k)
			}
			// The outbox keeps the frame for retransmission: encoded, it is
			// the frame that went out.
			if kept := bc.out.unacked(); len(kept) != 1 ||
				!bytes.Equal(appendFrame(nil, kept[0].kind, kept[0].seq, kept[0].p), appendFrame(nil, kBcast, 1, rawPayload(bcast))) {
				t.Fatalf("%s: the outbox does not keep the BCAST that was sent", label)
			}

			// Each upload through a hub of its own. The hub copies what it
			// keeps: the BCAST's read buffer is written over after it.
			hb, hs := bareHub(t, spec), bareHub(t, spec)
			for _, f := range got {
				hb.handle(hb.peers[id], hb.peers[id].conn, f.kind, f.seq, f.payload)
				scribble(f.payload)
			}
			for _, f := range want {
				hs.handle(hs.peers[id], hs.peers[id].conn, f.kind, f.seq, f.payload)
			}
			var body *byte
			for i := 0; i < n; i++ {
				to := sim.PeerID(i)
				if to == id {
					continue
				}
				bf, sf := hb.peers[to].out.unacked(), hs.peers[to].out.unacked()
				if len(bf) != len(sf) {
					t.Fatalf("%s: the BCAST left peer %d %d frames, the Send loop %d", label, to, len(bf), len(sf))
				}
				if len(sf) == 0 {
					continue
				}
				if !bytes.Equal(appendFrame(nil, bf[0].kind, bf[0].seq, bf[0].p), appendFrame(nil, sf[0].kind, sf[0].seq, sf[0].p)) {
					t.Fatalf("%s: the MSG the BCAST left peer %d differs from the Send loop's", label, to)
				}
				if body == nil {
					body = &bf[0].p.body[0]
				} else if &bf[0].p.body[0] != body {
					t.Fatalf("%s: the MSG to peer %d holds a body of its own", label, to)
				}
			}
		}
	}
}

// TestBroadcastAllocatesItsBodyOnly: with a warm outbox, a Broadcast costs
// the allocations of encoding its message once and nothing per destination.
func TestBroadcastAllocatesItsBodyOnly(t *testing.T) {
	const n = 16
	c := &client{stats: &sim.PeerStats{}, model: sim.Config{N: n, MsgBits: 256}, id: 3, link: link{conn: newFrameConn(&recConn{discard: true}, 0)}}
	for _, m := range broadcastSamples() {
		body := testing.AllocsPerRun(50, func() { sinkBytes = marshalAppend(make([]byte, 0, 16+m.SizeBits()/8), m) })
		got := testing.AllocsPerRun(50, func() {
			c.Broadcast(m)
			c.ack(c.out.nextSeq)
		})
		if got != body {
			t.Errorf("%T to %d peers: %v allocations, encoding it once is %v", m, n-1, got, body)
		}
	}
}

// TestBroadcastRouteAllocatesOneBody: with warm outboxes, the hub relays a
// BCAST to however many peers it names for one copy of its body.
func TestBroadcastRouteAllocatesOneBody(t *testing.T) {
	const n = 16
	h := bareHub(t, &sim.Spec{Config: sim.Config{N: n, T: 1, L: 2048, MsgBits: 256, Seed: 1}})
	src := h.peers[3]
	encoded := marshalAppend(nil, broadcastSamples()[0])
	for _, k := range []int{1, 7, n - 1} {
		payload := append(binary.AppendUvarint(nil, uint64(k)), encoded...)
		relay := func() {
			h.route(src, kBcast, payload)
			for _, hp := range h.peers {
				hp.ack(hp.out.nextSeq)
			}
		}
		relay()
		if got := testing.AllocsPerRun(50, relay); got != 1 {
			t.Errorf("a BCAST to %d peers: %v allocations, want 1", k, got)
		}
	}
}

// TestHostileBcast: a BCAST that names no recipient, more recipients than
// there are peers besides the sender, or whose k is cut short is acked and
// refused; one whose prefix takes in absent peers queues nothing for them,
// as a MSG to an absent peer does.
func TestHostileBcast(t *testing.T) {
	const n, id, msgBits = 5, sim.PeerID(1), 256
	encoded := marshalAppend(nil, broadcastSamples()[0])
	body := func(k uint64) []byte { return append(binary.AppendUvarint(nil, k), encoded...) }
	for _, tc := range []struct {
		name    string
		payload []byte
		absent  []sim.PeerID
		// reached is the peers left a MSG.
		reached []sim.PeerID
	}{
		{name: "k=0", payload: body(0)},
		{name: "k=N", payload: body(n)},
		{name: "k=2^40", payload: body(1 << 40)},
		{name: "k=2^64-1", payload: body(1<<64 - 1)},
		{name: "no payload", payload: []byte{}},
		{name: "truncated k", payload: []byte{0x80}},
		{name: "overlong k", payload: []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}},
		{name: "k=N-1", payload: body(n - 1), reached: []sim.PeerID{0, 2, 3, 4}},
		{name: "k=2, peer 0 absent", payload: body(2), absent: []sim.PeerID{0}, reached: []sim.PeerID{2}},
		{name: "k=N-1, all absent", payload: body(n - 1), absent: []sim.PeerID{0, 2, 3, 4}},
	} {
		h := bareHub(t, &sim.Spec{Config: sim.Config{N: n, T: 1, L: 2048, MsgBits: msgBits, Seed: 1}})
		for _, a := range tc.absent {
			delete(h.peers, a)
		}
		src := h.peers[id]
		h.handle(src, src.conn, kBcast, 1, tc.payload)
		if owed := src.conn.owed; len(owed) != 1 || owed[0].kind != kAck || owed[0].p.num != 1 {
			t.Errorf("%s: the sender is owed %v, want the ACK of seq 1", tc.name, owed)
		}
		var reached []sim.PeerID
		for i := 0; i < n; i++ {
			hp := h.peers[sim.PeerID(i)]
			if hp == nil {
				continue
			}
			switch q := hp.out.unacked(); {
			case len(q) == 0:
			case len(q) == 1 && q[0].kind == kMsg && q[0].p.num == uint64(id) && bytes.Equal(q[0].p.body, encoded):
				reached = append(reached, hp.id)
			default:
				t.Errorf("%s: peer %d holds %d frames, want at most the relayed MSG", tc.name, hp.id, len(q))
			}
		}
		if fmt.Sprint(reached) != fmt.Sprint(tc.reached) {
			t.Errorf("%s: relayed to %v, want %v", tc.name, reached, tc.reached)
		}
	}
}
