package netrt

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/intset"
	"repro/internal/protocols/crashk"
	"repro/internal/sim"
	"repro/internal/source"
)

// queryShapes are the index lists the query header codec meets in the
// benchmark workloads: naive's whole-array query at tcp-naive-bmaj's L
// ([0, 2^18), one run), crashk's phase ≥ 2 owner sets (4,096 runs of one or
// two, all steps) and hub-load's eight-bit queries (one run).
func queryShapes() []struct {
	name string
	idx  []int
} {
	run := make([]int, 262144)
	for i := range run {
		run[i] = i
	}
	rng := rand.New(rand.NewSource(5))
	var short []int
	for pos, runs := 0, 0; runs < 4096; runs++ {
		pos += 2 + rng.Intn(40)
		for n := 1 + rng.Intn(2); n > 0; n-- {
			short = append(short, pos)
			pos++
		}
	}
	return []struct {
		name string
		idx  []int
	}{
		{"naive262144", run},
		{"runs4096x1-2", short},
		{"eight", []int{1000, 1001, 1002, 1003, 1004, 1005, 1006, 1007}},
	}
}

var (
	sinkBytes []byte
	sinkInts  []int
	sinkInt   int
	sinkKey   qkey
)

// BenchmarkQueryHeader times the four things the runtime does with a query
// header — encode it, scan it, decode it, key it — on each shape. Encoding
// reuses one buffer and copies the header out, as the client does, and
// decoding reuses one buffer, as the hub does on a connection.
func BenchmarkQueryHeader(b *testing.B) {
	for _, sh := range queryShapes() {
		hdr := encodeQueryHeader(3, sh.idx)
		b.Logf("%s: %d indices, a header of %d bytes", sh.name, len(sh.idx), len(hdr))
		b.Run("encode/"+sh.name, func(b *testing.B) {
			b.ReportAllocs()
			var enc []byte
			for i := 0; i < b.N; i++ {
				enc = appendQueryHeader(enc[:0], 3, sh.idx)
				sinkBytes = bytes.Clone(enc)
			}
		})
		b.Run("scan/"+sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, _, sinkInt, _, _, _ = scanQuery(hdr, len(sh.idx))
			}
		})
		b.Run("decode/"+sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, sinkInts, _, _ = decodeQuery(sinkInts, hdr, len(sh.idx))
			}
		})
		b.Run("key/"+sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkKey = qkeyOfHeader(3, hdr)
			}
		})
	}
}

// BenchmarkHubLoad is one hub-load trial of `go run ./benchmark` an
// iteration, for taking a profile of it (`make profile CELL=hub-load`).
// The source of truth for the parameters is benchmark/workloads.go
// (loadTrial and loadOp's hub); copy a change there to here. The input is
// the seed-derived default and not a generated array, which the profiled
// code does not see. Every query must be answered.
func BenchmarkHubLoad(b *testing.B) {
	trial := LoadSpec{Clients: 25000, Conns: 2, QueriesPerClient: 4, BitsPerQuery: 8, Window: 256}
	want := int64(trial.Clients * trial.QueriesPerClient)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hub, err := startHub(&sim.Spec{Config: sim.Config{N: 2, L: 4096, MsgBits: 64, Seed: int64(i + 1)}}, Net{})
		if err != nil {
			b.Fatal(err)
		}
		res, err := hub.GenerateLoad(trial)
		var dropped int64
		for _, s := range hub.ShardStats() {
			dropped += s.Dropped
		}
		hub.Close()
		if err != nil {
			b.Fatal(err)
		}
		if res.Queries != want || res.Replies != want || res.TimedOut || dropped != 0 {
			b.Fatalf("queries=%d replies=%d (want %d each) timedOut=%v dropped=%d",
				res.Queries, res.Replies, want, res.TimedOut, dropped)
		}
		b.ReportMetric(res.Percentile(50), "p50-ms")
	}
}

// BenchmarkStorm is one tcp-storm download of `go run ./benchmark` an
// iteration, for taking a profile of it (`make profile CELL=tcp-storm`):
// the workload drives Run directly, so no download.Run cell can stand in
// for it. The source of truth for the parameters is benchmark/workloads.go
// (stormOp, stormAbsent, stormChurn); copy a change there to here. The
// input is the seed-derived default and the fault-plan seeds are the
// iteration's, neither of which the profiled code sees. Every honest peer
// must output the input, the churn peer after rejoining from its
// checkpoint.
func BenchmarkStorm(b *testing.B) { benchStorm(b, .02) }

// BenchmarkStormLossless is BenchmarkStorm's cell with no frame dropped:
// the time BenchmarkStorm takes over it is the price of loss recovery.
func BenchmarkStormLossless(b *testing.B) { benchStorm(b, 0) }

func benchStorm(b *testing.B, drop float64) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		seed := int64(i + 1)
		res, err := Runner(Net{
			CheckpointDir: b.TempDir(),
			Faults:        &FaultPlan{Seed: seed + 1000, Drop: drop, Dup: .02, Delay: 2 * time.Millisecond, Reorder: .05},
			Resilience:    Resilience{QueryTimeout: 60 * time.Millisecond, RTO: 30 * time.Millisecond},
		})(&sim.Spec{
			Config:       sim.Config{N: 16, T: 4, L: 65536, MsgBits: 65536 / 16, Seed: seed},
			NewPeer:      crashk.NewFast,
			Label:        "crashk-fast",
			Faults:       sim.Faults{Fates: append(sim.Crashes([]sim.PeerID{3, 8, 13}, 0), []sim.Fate{{Peer: 1, CrashAfter: 60, Downtime: 0.05}}...)},
			SourceFaults: &source.FaultPlan{Seed: seed + 2000, FailRate: 0.1},
			SourcePolicy: source.Policy{BaseBackoff: 0.02, MaxBackoff: 0.2, Deadline: 0.25, BreakerCooldown: 0.1},
		})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Correct || res.Rejoins != 1 {
			b.Fatalf("seed %d: correct=%v rejoins=%d: %v", seed, res.Correct, res.Rejoins, res.Failures)
		}
		for _, ps := range res.PerPeer {
			if ps.Honest && !ps.OutputCorrect {
				b.Fatalf("seed %d: honest peer %d did not output the input", seed, ps.ID)
			}
		}
	}
}

// crashkReq2 is a Req2 shaped like tcp-crashk's in phase 2 (N=16, T=8,
// L=65536): one item per crashed peer, each a random quarter of that peer's
// block, ~1,024 indices in runs of one or two. It encodes to ~12 KB, between
// the median (8.8 KB) and the upper quartile (16 KB) of the Req2s that
// three tcp-crashk downloads sent.
func crashkReq2() *crashk.Req2 {
	const n, t, L = 16, 8, 65536
	rng := rand.New(rand.NewSource(11))
	req := &crashk.Req2{Phase: 2, IdxBits: 16}
	for _, q := range adversary.SpreadFaulty(n, t) {
		var share intset.Builder
		lo, hi := sim.BlockRange(L, n, q)
		for i := lo; i < hi; i++ {
			if rng.Intn(4) == 0 {
				share.Add(i)
			}
		}
		req.Items = append(req.Items, crashk.Req2Item{Q: q, Indices: intset.Hold(share.Set())})
	}
	return req
}

// BenchmarkBroadcastRelay is one broadcast of crashkReq2 from a client to
// the n − 1 others through the hub an iteration, on one goroutine and over
// in-memory connections: the sender's Broadcast and its writer's pass; the
// hub's read and dispatch (h.handle: admission, ACK, route) of every frame
// the sender wrote, and one writer pass per hub connection; and each
// destination's read, decode and ACK, sent by its writer's pass. Frames are acked as they would be, so every outbox stays
// warm. B/op and allocs/op are the row.
func BenchmarkBroadcastRelay(b *testing.B) {
	const n = 16
	m := crashkReq2()
	spec := &sim.Spec{Config: sim.Config{N: n, T: 8, L: 65536, MsgBits: 65536 / n, Seed: 1}}
	h := bareHub(b, spec)
	// Each link is a recConn whose writes the far end reads back.
	type pipe struct {
		rc *recConn
		r  *bytes.Reader
		in *frameConn
	}
	newPipe := func() pipe {
		p := pipe{rc: &recConn{}, r: bytes.NewReader(nil)}
		p.in = newFrameConn(&recConn{src: p.r}, 0)
		return p
	}
	up := newPipe()
	sender := &client{stats: &sim.PeerStats{}, model: spec.Config, id: 0, link: link{conn: newFrameConn(up.rc, 0)}}
	from := h.peers[0]
	from.conn = newFrameConn(&recConn{discard: true}, 0)
	down := make([]pipe, n)
	dests := make([]*client, n)
	for i := 1; i < n; i++ {
		down[i] = newPipe()
		h.peers[sim.PeerID(i)].conn = newFrameConn(down[i].rc, 0)
		dests[i] = &client{stats: &sim.PeerStats{}, model: spec.Config, id: sim.PeerID(i), impl: &recorder{}, link: link{conn: newFrameConn(&recConn{discard: true}, 0)}}
	}
	// Every connection's writer keeps its own scratch: the sender's, and
	// the hub's and the client's end of each destination's.
	var sw wbuf
	hw, cw := make([]wbuf, n), make([]wbuf, n)
	b.ReportAllocs()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		up.rc.wrote = up.rc.wrote[:0]
		sender.Broadcast(m)
		sender.pass(sender.conn, &sw)
		sender.ack(sender.out.nextSeq)
		up.r.Reset(up.rc.wrote)
		for {
			kind, seq, payload, err := up.in.readFrame()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			h.handle(from, from.conn, kind, seq, payload)
		}
		for i := 0; i < n; i++ {
			hp := h.peers[sim.PeerID(i)]
			h.pass(hp, hp.conn, &hw[i])
		}
		for i := 1; i < n; i++ {
			hp, l, c := h.peers[sim.PeerID(i)], down[i], dests[i]
			hp.ack(hp.out.nextSeq)
			l.r.Reset(l.rc.wrote)
			l.rc.wrote = l.rc.wrote[:0]
			kind, seq, payload, err := l.in.readFrame()
			if err != nil {
				b.Fatal(err)
			}
			c.handleFrame(kind, seq, payload)
			c.pass(c.conn, &cw[i])
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(marshalAppend(nil, m))), "msg-B")
	for i := 1; i < n; i++ {
		if got := len(dests[i].impl.(*recorder).msgs); got != b.N {
			b.Fatalf("peer %d was delivered %d messages in %d broadcasts", i, got, b.N)
		}
	}
}
