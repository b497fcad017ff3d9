package netrt

import (
	"net"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestGenerateLoad drives a few thousand logical clients over a handful
// of connections against a hub: every query must be answered (zero
// drops), latencies recorded, and the writer counters must account for at
// least one reply frame per query.
func TestGenerateLoad(t *testing.T) {
	hub, err := startHub(&sim.Spec{Config: sim.Config{N: 8, L: 256, MsgBits: 64, Seed: 4}}, Net{})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	res, err := hub.GenerateLoad(LoadSpec{
		Clients: 2000, Conns: 8, QueriesPerClient: 2, BitsPerQuery: 4,
		Window: 64, Timeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantQ := int64(2000 * 2)
	if res.Queries != wantQ || res.Replies != wantQ {
		t.Fatalf("queries=%d replies=%d, want %d each", res.Queries, res.Replies, wantQ)
	}
	if res.TimedOut {
		t.Fatal("run reported timeout")
	}
	if len(res.LatenciesMs) != int(wantQ) {
		t.Fatalf("recorded %d latencies, want %d", len(res.LatenciesMs), wantQ)
	}
	p50, p99 := res.Percentile(50), res.Percentile(99)
	if p50 <= 0 || p99 < p50 || res.Percentile(100) < p99 {
		t.Fatalf("implausible percentiles: p50=%v p99=%v max=%v", p50, p99, res.Percentile(100))
	}
	var written int64
	for _, s := range hub.ShardStats() {
		written += s.Written
	}
	// Each query draws a QREPLY plus an ACK from its connection's writer.
	if written < wantQ {
		t.Fatalf("the writers wrote %d frames, want >= %d", written, wantQ)
	}
}

// TestGenerateLoadCompactsMissingReplies: a run cut off by its Timeout
// leaves gaps in the connections' sample windows, and the result holds
// exactly one sample per reply, sorted, with no gap left as a zero.
func TestGenerateLoadCompactsMissingReplies(t *testing.T) {
	hub, err := startHub(&sim.Spec{Config: sim.Config{N: 4, L: 256, MsgBits: 64, Seed: 5}}, Net{})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	for _, timeout := range []time.Duration{20 * time.Millisecond, 5 * time.Millisecond, time.Millisecond} {
		res, err := hub.GenerateLoad(LoadSpec{
			Clients: 20000, Conns: 4, QueriesPerClient: 3, Window: 64, Timeout: timeout,
		})
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(res.LatenciesMs)) != res.Replies {
			t.Fatalf("timeout %v: %d samples for %d replies", timeout, len(res.LatenciesMs), res.Replies)
		}
		for i, ms := range res.LatenciesMs {
			if ms <= 0 || i > 0 && ms < res.LatenciesMs[i-1] {
				t.Fatalf("timeout %v: sample %d is %v after %v", timeout, i, ms, res.LatenciesMs[max(i-1, 0)])
			}
		}
		if res.Replies < res.Queries {
			return
		}
	}
	t.Skip("every run was answered in full before its timeout: no gap to compact")
}

// TestGenerateLoadValidation pins the load-spec error paths.
func TestGenerateLoadValidation(t *testing.T) {
	hub, err := startHub(&sim.Spec{Config: sim.Config{N: 2, L: 64, MsgBits: 64, Seed: 1}}, Net{})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	if _, err := hub.GenerateLoad(LoadSpec{Clients: 0, Conns: 1}); err == nil {
		t.Error("zero clients accepted")
	}
	if _, err := hub.GenerateLoad(LoadSpec{Clients: 10, Conns: 4}); err == nil {
		t.Error("conns > hub N accepted")
	}
}

// TestStartHub drives the exported load-generation surface with raw
// frames: hello, a query, a qreply back, and writer counters that account
// for the written frames.
func TestStartHub(t *testing.T) {
	hub, err := startHub(&sim.Spec{
		Config: sim.Config{N: 4, L: 64, MsgBits: 64, Seed: 9},
	}, Net{IdleTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	id := sim.PeerID(3)
	conn, err := net.Dial("tcp", hub.Addr())
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
	if len(stats) != 1 {
		t.Fatalf("ShardStats: got %d entries, want 1", len(stats))
	}
	// The connection's writer counts its ack/qreply frames a pass after
	// the write that let the reply be read, so give it until a deadline.
	for deadline := time.Now().Add(5 * time.Second); stats[0].Written == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		stats = hub.ShardStats()
	}
	if stats[0].Written == 0 || stats[0].Enqueued < stats[0].Written {
		t.Errorf("the writers counted no frames: %+v", stats)
	}
}
