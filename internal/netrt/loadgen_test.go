package netrt

import (
	"testing"
	"time"
)

// TestGenerateLoad drives a few thousand logical clients over a handful
// of connections against a sharded hub: every query must be answered
// (zero drops), latencies recorded, and the shard counters must account
// for at least one reply frame per query.
func TestGenerateLoad(t *testing.T) {
	hub, err := StartHub(Config{
		N: 8, L: 256, MsgBits: 64, Seed: 4,
		Shards: 4,
	})
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
		t.Fatalf("shards wrote %d frames, want >= %d", written, wantQ)
	}
}

// TestGenerateLoadCompactsMissingReplies: a run cut off by its Timeout
// leaves gaps in the connections' sample windows, and the result holds
// exactly one sample per reply, sorted, with no gap left as a zero.
func TestGenerateLoadCompactsMissingReplies(t *testing.T) {
	hub, err := StartHub(Config{N: 4, L: 256, MsgBits: 64, Seed: 5})
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
	hub, err := StartHub(Config{N: 2, L: 64, MsgBits: 64, Seed: 1})
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
