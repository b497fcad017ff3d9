package netrt

import (
	"bytes"
	"net"
	"testing"
	"time"

	"repro/internal/protocols/crashk"
	"repro/internal/protocols/naive"
	"repro/internal/sim"
)

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

// TestShardedRun runs full protocols through a multi-shard hub: peers
// land on different listeners, and each connection has its own writer.
func TestShardedRun(t *testing.T) {
	res, err := Run(Config{
		N: 8, T: 0, L: 512, MsgBits: 128, Seed: 5,
		NewPeer: naive.New,
		Shards:  4,
		Timeout: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("sharded naive run incorrect: %v", res.Failures)
	}
}

// TestShardedRunWithAbsentPeers exercises a sharded hub with downed links:
// absent peers never connect, so their frames wait in outboxes no writer
// drains, without wedging the other peers on the same shard.
func TestShardedRunWithAbsentPeers(t *testing.T) {
	res, err := Run(Config{
		N: 8, T: 2, L: 1024, MsgBits: 256, Seed: 6,
		NewPeer: crashk.New,
		Absent:  []sim.PeerID{2, 5},
		Shards:  3,
		Timeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("sharded crashk run incorrect: %v", res.Failures)
	}
}

// TestStartHub drives the exported load-generation surface with raw
// frames: hello on the right shard, a query, a qreply back, and shard
// counters that account for the written frames.
func TestStartHub(t *testing.T) {
	hub, err := StartHub(Config{
		N: 4, L: 64, MsgBits: 64, Seed: 9,
		Shards:      2,
		IdleTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	if got := len(hub.Addrs()); got != 2 {
		t.Fatalf("Addrs: got %d shards, want 2", got)
	}
	id := sim.PeerID(3)
	conn, err := net.Dial("tcp", hub.Addr(id))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fc := newFrameConn(conn, 0)
	if err := fc.writeFrame(kHello, 0, numPayload(uint64(id), nil)); err != nil {
		t.Fatal(err)
	}
	if err := fc.writeFrame(kQuery, 1, rawPayload(encodeQueryHeader(7, []int{0, 3, 5}))); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		kind, _, payload, err := fc.readFrame()
		if err != nil {
			t.Fatalf("no reply from StartHub hub: %v", err)
		}
		if kind != kQReply {
			continue
		}
		tag, indices, _, ok := decodeQuery(nil, payload, 64)
		if !ok || tag != 7 || len(indices) != 3 {
			t.Fatalf("mangled reply: ok=%v tag=%d indices=%v", ok, tag, indices)
		}
		break
	}
	stats := hub.ShardStats()
	if len(stats) != 2 {
		t.Fatalf("ShardStats: got %d shards, want 2", len(stats))
	}
	// Peer 3 lives on shard 3 % 2 = 1: its connection's writer counts its
	// ack/qreply frames there. It counts a pass after the write that let
	// the reply be read, so give it until a deadline.
	for deadline := time.Now().Add(5 * time.Second); stats[1].Written == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		stats = hub.ShardStats()
	}
	if stats[1].Written == 0 {
		t.Errorf("shard 1 wrote no frames: %+v", stats)
	}
	if stats[0].Written != 0 || stats[0].Enqueued != 0 {
		t.Errorf("shard 0 saw traffic for a peer it does not own: %+v", stats)
	}
}
