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
func pipeClient(id sim.PeerID, n int, churn *sim.ChurnPeer) (c *client, sent func() []sentFrame) {
	near, far := net.Pipe()
	fc := newFrameConn(near, 0)
	c = &client{stats: &sim.PeerStats{}, cfg: &Config{N: n}, id: id, conn: fc, churn: churn}
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

// TestBroadcastMatchesSends: Broadcast encodes its message once, and must
// still put on the connection and keep in the outbox exactly the frames
// that one Send per other peer does — each MSG payload the destination's
// uvarint and then the wire-encoded message — and, on a churn peer whose
// crash point falls inside the broadcast, stop after the same number of
// them. Its outbox entries share one body, each under its own seq.
func TestBroadcastMatchesSends(t *testing.T) {
	const n, id = 6, sim.PeerID(2)
	for mi, m := range broadcastSamples() {
		encoded := marshalAppend(nil, m)
		// crashAfter < 0: no churn. Otherwise the action budget, from a
		// crash before the first send to one the broadcast never reaches.
		for crashAfter := -1; crashAfter <= n; crashAfter++ {
			label := fmt.Sprintf("message %d, CrashAfter %d", mi, crashAfter)
			churn := func() *sim.ChurnPeer {
				if crashAfter < 0 {
					return nil
				}
				return &sim.ChurnPeer{Peer: id, CrashAfter: crashAfter}
			}
			bc, bcSent := pipeClient(id, n, churn())
			bc.Broadcast(m)
			sc, scSent := pipeClient(id, n, churn())
			for i := 0; i < n; i++ {
				sc.Send(sim.PeerID(i), m) // Send drops i == id itself
			}
			got, want := bcSent(), scSent()

			wantFrames := n - 1
			if crashAfter >= 0 {
				wantFrames = min(crashAfter, n-1)
			}
			if len(want) != wantFrames {
				t.Fatalf("%s: the Send loop wrote %d frames, expected %d", label, len(want), wantFrames)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: Broadcast wrote %d frames, the Send loop %d", label, len(got), len(want))
			}
			for k := range want {
				to := k
				if sim.PeerID(to) >= id {
					to++
				}
				wire := append(binary.AppendUvarint(nil, uint64(to)), encoded...)
				if want[k].kind != kMsg || want[k].seq != uint64(k+1) || !bytes.Equal(want[k].payload, wire) {
					t.Fatalf("%s: the Send loop's frame %d is (kind %d, seq %d, %d bytes), want a MSG to %d, seq %d, %d bytes",
						label, k, want[k].kind, want[k].seq, len(want[k].payload), to, k+1, len(wire))
				}
				if got[k].kind != want[k].kind || got[k].seq != want[k].seq || !bytes.Equal(got[k].payload, want[k].payload) {
					t.Fatalf("%s: frame %d is (kind %d, seq %d, %d bytes), the Send loop's (kind %d, seq %d, %d bytes)",
						label, k, got[k].kind, got[k].seq, len(got[k].payload), want[k].kind, want[k].seq, len(want[k].payload))
				}
				// The outbox keeps each frame for retransmission: encoded,
				// it is the frame the Send loop keeps, byte for byte.
				bo, so := bc.out.frames[k], sc.out.frames[k]
				if !bytes.Equal(appendFrame(nil, bo.kind, bo.seq, bo.p), appendFrame(nil, so.kind, so.seq, so.p)) ||
					!bytes.Equal(appendFrame(nil, bo.kind, bo.seq, bo.p), appendFrame(nil, kMsg, want[k].seq, rawPayload(wire))) {
					t.Fatalf("%s: outbox frame %d differs from the Send loop's", label, k)
				}
				if k > 0 {
					prev := bc.out.frames[k-1]
					if &bo.p.body[0] != &prev.p.body[0] {
						t.Fatalf("%s: outbox frames %d and %d hold bodies of their own", label, k-1, k)
					}
					if bo.seq != prev.seq+1 {
						t.Fatalf("%s: outbox frames %d and %d have seqs %d and %d", label, k-1, k, prev.seq, bo.seq)
					}
				}
			}
			if bc.actions != sc.actions || bc.crashed != sc.crashed {
				t.Fatalf("%s: Broadcast left actions=%d crashed=%v, the Send loop actions=%d crashed=%v",
					label, bc.actions, bc.crashed, sc.actions, sc.crashed)
			}
		}
	}
}

// TestBroadcastAllocatesItsBodyOnly: with a warm outbox, a Broadcast costs
// the allocations of encoding its message once and nothing per destination.
func TestBroadcastAllocatesItsBodyOnly(t *testing.T) {
	const n = 16
	c := &client{stats: &sim.PeerStats{}, cfg: &Config{N: n}, id: 3, conn: newFrameConn(&recConn{discard: true}, 0)}
	for _, m := range broadcastSamples() {
		body := testing.AllocsPerRun(50, func() { sinkBytes = marshalAppend(make([]byte, 0, 16+m.SizeBits()/8), m) })
		got := testing.AllocsPerRun(50, func() {
			c.Broadcast(m)
			c.out.ackTo(c.out.nextSeq)
		})
		if got != body {
			t.Errorf("%T to %d peers: %v allocations, encoding it once is %v", m, n-1, got, body)
		}
	}
}
