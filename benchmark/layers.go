package main

import (
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/download"
	"repro/internal/adversary"
	"repro/internal/bitarray"
	"repro/internal/checkpoint"
	"repro/internal/des"
	"repro/internal/intset"
	"repro/internal/merkle"
	"repro/internal/netrt"
	"repro/internal/obs"
	"repro/internal/protocols/crashk"
	"repro/internal/sim"
	"repro/internal/source"
	"repro/internal/wire"
)

// microBudget is how long one micro-row is timed for.
const microBudget = 25 * time.Millisecond

// micro times f until microBudget has passed and returns the mean time
// and heap allocations of one call.
func micro(f func()) (ns, allocs float64) {
	f() // warm: first-call allocations and cache misses are not the row
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	calls, batch := 0, 1
	t0 := time.Now()
	for time.Since(t0) < microBudget {
		for i := 0; i < batch; i++ {
			f()
		}
		calls += batch
		if batch < 1<<16 {
			batch *= 2
		}
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return float64(elapsed) / float64(calls), float64(m1.Mallocs-m0.Mallocs) / float64(calls)
}

func kbit(bits int) float64 { return float64(bits) / 1000 }

// probes are the micro-rows of one traced pass, by per-layer metric name,
// plus the per-call costs the budget table multiplies counts by.
type probes struct {
	m map[string]float64
	// per-call costs in ns, for the budget
	fetchNs, verifyNs, proveNs, marshalNs, unmarshalNs float64
}

// runProbes times each layer on the workload's path through its exported
// functions, on inputs of the workload's shape. Layers off the path are
// skipped and read 0.
func runProbes(p *pass, plain *acc) *probes {
	w, sh := p.w, p.w.shape
	pr := &probes{m: make(map[string]float64)}
	defer p.tr.begin("probes", w.name)()
	seed := deriveSeed(p.cfg.seed, w.name, "probe", 0)
	x := genInput(seed, sh.L)

	for _, pb := range []struct {
		layer string
		run   func()
	}{
		{"bitarray", func() { probeBitarray(pr, x, sh) }},
		{"des", func() { probeDes(pr, p, plain, seed) }},
		{"wire", func() { probeWire(pr, x, sh) }},
		{"merkle", func() { probeMerkle(pr, p, x, sh, seed) }},
		{"source", func() { probeSource(pr, x, sh) }},
		{"netrt", func() { probeNetrt(pr, p, x, sh, seed) }},
		{"checkpoint", func() { probeCheckpoint(pr, x, sh, p.scratch, seed) }},
		{"download", func() { probeDownload(pr, sh, seed) }},
	} {
		if w.layers[pb.layer] {
			end := p.tr.begin("probe."+pb.layer, w.name)
			pb.run()
			end()
		}
	}
	return pr
}

// probeBitarray times the range operations on blocks of MsgBits bits, the
// unit the protocols move.
func probeBitarray(pr *probes, x *bitarray.Array, sh shape) {
	block := min(sh.MsgBits, sh.L)
	blocks := sh.L / block
	perPass := kbit(blocks * block)

	ns, allocs := micro(func() {
		tr := bitarray.NewTracker(sh.L)
		for b := 0; b < blocks; b++ {
			tr.LearnRange(b*block, (b+1)*block, x, b*block)
		}
	})
	pr.m["bitarray.learn_range_ns_per_kbit"] = ns / perPass
	pr.m["bitarray.allocs_per_learn"] = allocs / float64(blocks)

	// One bit of misalignment between source and destination takes the
	// shifting path, which is what arbitrary index ranges hit.
	dst := bitarray.New(sh.L)
	ns, _ = micro(func() {
		for b := 0; b < blocks; b++ {
			n := block
			if b == blocks-1 {
				n--
			}
			dst.CopyFrom(x, b*block+1, b*block, n)
		}
	})
	pr.m["bitarray.copy_from_ns_per_kbit"] = ns / perPass

	half := bitarray.NewTracker(sh.L)
	for b := 0; b < blocks; b += 2 {
		half.LearnRange(b*block, (b+1)*block, x, b*block)
	}
	idx := make([]int, 0, sh.L)
	ns, _ = micro(func() {
		for b := 0; b < blocks; b++ {
			idx = half.UnknownIn(idx[:0], b*block, block)
		}
	})
	pr.m["bitarray.unknown_in_ns_per_kbit"] = ns / perPass

	buf := make([]byte, 0, x.EncodedLen())
	ns, _ = micro(func() { buf = x.AppendTo(buf[:0]) })
	pr.m["bitarray.append_to_ns_per_kbit"] = ns / kbit(sh.L)
	ns, _ = micro(func() { _, _ = bitarray.FromBytes(buf) })
	pr.m["bitarray.from_bytes_ns_per_kbit"] = ns / kbit(sh.L)
	same := x.Clone()
	ns, _ = micro(func() { _, _ = x.FirstDiff(same) })
	pr.m["bitarray.first_diff_ns_per_kbit"] = ns / kbit(sh.L)
}

// probeDes runs the null protocol for the engine's bare cost per event,
// and a few ops at Workers = nproc against the plain ops' median.
func probeDes(pr *probes, p *pass, plain *acc, seed int64) {
	sh := p.w.shape
	const rounds = 100
	spec := nullSpec(sh.N, sh.L, rounds, seed)
	t0 := time.Now()
	res, err := des.New().Run(spec)
	if err == nil && res.Events > 0 {
		pr.m["des.null_ns_per_event"] = float64(time.Since(t0)) / float64(res.Events)
	}
	var par []float64
	for i := 0; i < 5; i++ {
		u, _ := p.unit("workers", i, false, runtime.NumCPU())
		par = append(par, u.samples...)
	}
	pr.m["des.workers_speedup"] = ratio(percentile(sortedCopy(plain.samples), 50), percentile(sortedCopy(par), 50))
}

// probeWire marshals and unmarshals the crashk message set at the
// workload's message size: a request and a response for one block, a
// stage-2 response carrying one block, and the full-array broadcast.
func probeWire(pr *probes, x *bitarray.Array, sh shape) {
	block := min(sh.MsgBits, sh.L)
	idx := intset.FromRange(0, block)
	idxBits := 1
	for 1<<idxBits < sh.L {
		idxBits++
	}
	msgs := []sim.Message{
		&crashk.Req1{Phase: 1, Indices: idx, IdxBits: idxBits},
		&crashk.Resp1{Phase: 1, Indices: idx, Values: x.Slice(0, block), IdxBits: idxBits},
		&crashk.Resp2{Phase: 1, IdxBits: idxBits, Items: []crashk.Resp2Item{{Q: 1, Indices: idx, Values: x.Slice(0, block)}}},
		&crashk.Full{Values: x},
	}
	valueBits := 2*block + sh.L
	var enc [][]byte
	bytes := 0
	for _, m := range msgs {
		b, err := wire.Marshal(m)
		if err != nil {
			return
		}
		enc = append(enc, b)
		bytes += len(b)
	}
	buf := make([]byte, 0, bytes)
	ns, allocs := micro(func() {
		for _, m := range msgs {
			buf, _ = wire.MarshalAppend(buf[:0], m)
		}
	})
	n := float64(len(msgs))
	pr.marshalNs = ns / n
	pr.m["wire.marshal_ns_per_msg"], pr.m["wire.marshal_allocs"] = ns/n, allocs/n
	ns, allocs = micro(func() {
		for _, b := range enc {
			_, _ = wire.Unmarshal(b, sh.L)
		}
	})
	pr.unmarshalNs = ns / n
	pr.m["wire.unmarshal_ns_per_msg"], pr.m["wire.unmarshal_allocs"] = ns/n, allocs/n
	pr.m["wire.bytes_per_payload_bit"] = float64(bytes) / float64(valueBits)
}

// querySpan is the index list of one source query of the workload.
func querySpan(sh shape) []int {
	idx := make([]int, min(sh.QueryBits, sh.L))
	for i := range idx {
		idx[i] = i
	}
	return idx
}

func probeMerkle(pr *probes, p *pass, x *bitarray.Array, sh shape, seed int64) {
	end := p.tr.begin("setup.merkle_build", p.w.name)
	tree := merkle.Build(x, sh.LeafBits)
	end()
	ns, _ := micro(func() { merkle.Build(x, sh.LeafBits) })
	pr.m["merkle.build_ms"] = ns / 1e6
	idx := querySpan(sh)
	par := tree.Params()
	lo, hi := par.LeafSpan(idx[0], idx[len(idx)-1])
	ns, _ = micro(func() { tree.Prove(lo, hi) })
	pr.proveNs = ns
	pr.m["merkle.prove_us"] = ns / 1e3
	proof := tree.Prove(lo, hi)
	span := x.Slice(lo*par.LeafBits, par.SpanBits(lo, hi))
	root := tree.Root()
	ok := true
	ns, allocs := micro(func() { ok = merkle.Verify(root, par, lo, hi, span, proof) && ok })
	if !ok {
		return // a proof that does not verify has no cost worth reporting
	}
	pr.verifyNs = ns
	pr.m["merkle.verify_us_per_kbit"] = ns / 1e3 / kbit(span.Len())
	pr.m["merkle.verify_allocs"] = allocs
	pr.m["merkle.proof_bytes"] = float64(proof.EncodedLen())

	// The QPROOF codec on the same reply: encode, strict decode, re-encode.
	plan := &source.MirrorPlan{Mirrors: 5, Byz: 0, LeafBits: sh.LeafBits, Seed: seed}
	fleet := source.NewMirrored(x, plan, sh.N, source.NewTrusted(x))
	rep := fleet.ServeMirror(source.RangeRequest{Peer: 0, Ordinal: 1, LeafLo: lo, LeafHi: hi})
	ns, _ = micro(func() {
		_, _ = netrt.RoundTripMirrorFrame(netrt.MarshalProofFrame(1, 0, idx, rep))
	})
	pr.m["netrt.proofframe_roundtrip_us"] = ns / 1e3
	req := source.Request{Peer: 0, Indices: idx, Ordinal: 1, Attempt: 1}
	ns, _ = micro(func() { _, _ = fleet.Fetch(req) })
	pr.m["source.mirrored_fetch_us"] = ns / 1e3
}

// probeDownload is Run's fixed cost: the smallest cell on the workload's
// runtime.
func probeDownload(pr *probes, sh shape, seed int64) {
	ns, _ := micro(func() {
		_, _ = download.Run(download.Options{Protocol: sh.Protocol, N: 2, T: 0, L: 64, Seed: seed, TCP: sh.TCP})
	})
	pr.m["download.fixed_overhead_us"] = ns / 1e3
}

func probeSource(pr *probes, x *bitarray.Array, sh shape) {
	req := source.Request{Peer: 0, Indices: querySpan(sh), Ordinal: 1, Attempt: 1}
	src := source.NewTrusted(x)
	ns, _ := micro(func() { _, _ = src.Fetch(req) })
	pr.fetchNs = ns
	pr.m["source.trusted_fetch_ns_per_kbit"] = ns / kbit(len(req.Indices))

	// One admitted attempt that fails and is retried, then one that
	// succeeds: the client state machine's steps around every query.
	cl := source.NewClient(0, source.Policy{BreakerThreshold: 1 << 30, MaxAttempts: 1 << 30})
	now, ord := 0.0, uint64(0)
	ns, _ = micro(func() {
		ord++
		cl.Admit(now)
		cl.OnFailure(now, source.KindFlaky, ord, 1)
		cl.Admit(now)
		cl.OnSuccess(now)
		now++
	})
	pr.m["source.client_step_ns"] = ns / 4
}

func probeNetrt(pr *probes, p *pass, x *bitarray.Array, sh shape, seed int64) {
	cfg := netrt.Config{N: 2, Shards: 2, ShardQueue: 1024, L: sh.L, MsgBits: sh.MsgBits, Seed: seed, Input: x}
	end := p.tr.begin("setup.hub_start", p.w.name)
	t0 := time.Now()
	hub, err := netrt.StartHub(cfg)
	pr.m["netrt.hub_start_ms"] = ms(time.Since(t0))
	end()
	if err != nil {
		return
	}
	defer hub.Close()
	// One client, one query in flight: the round trip with nothing queued
	// behind it. Diagnostic only; it spread 32-43 k queries/s between
	// identical runs.
	res, err := hub.GenerateLoad(netrt.LoadSpec{Clients: 1, Conns: 1, QueriesPerClient: 2000,
		BitsPerQuery: min(sh.QueryBits, sh.L, 4096), Window: 1})
	if err == nil {
		pr.m["netrt.query_rtt_unloaded_us"] = res.Percentile(50) * 1e3
	}
}

func probeCheckpoint(pr *probes, x *bitarray.Array, sh shape, scratch string, seed int64) {
	dir := filepath.Join(scratch, "probe-ckpt")
	store, err := checkpoint.NewStore(dir)
	if err != nil {
		return
	}
	defer os.RemoveAll(dir)
	known := bitarray.New(sh.L)
	for i := 0; i < sh.L/2; i++ {
		known.Set(i, true)
	}
	st := &checkpoint.State{Peer: 1, N: sh.N, T: 4, L: sh.L, Seed: seed, Phase: "stage1", Known: known, Vals: x}
	pr.m["checkpoint.bytes"] = float64(len(checkpoint.Marshal(st)))
	ns, _ := micro(func() { err = store.Save(st) })
	if err != nil {
		return
	}
	pr.m["checkpoint.save_us"] = ns / 1e3
	ns, _ = micro(func() { _, _ = store.Load(1, sh.N, 4, sh.L, seed) })
	pr.m["checkpoint.load_us"] = ns / 1e3
}

// --- the null protocol ---------------------------------------------------

// ping and pong are the null protocol's two messages.
type ping struct{}
type pong struct{}

func (ping) SizeBits() int { return 64 }
func (pong) SizeBits() int { return 64 }

// nullPeer fetches the array in one query, then plays `rounds` rounds of
// ping to its successor and pong back. It does nothing with a message but
// count it, so a run's wall time per event is the engine's own cost.
type nullPeer struct {
	ctx           sim.Context
	rounds        int
	ponged, pings int
	out           *bitarray.Array
}

func (p *nullPeer) next() sim.PeerID { return sim.PeerID((int(p.ctx.ID()) + 1) % p.ctx.N()) }

func (p *nullPeer) Init(ctx sim.Context) {
	p.ctx = ctx
	idx := make([]int, ctx.L())
	for i := range idx {
		idx[i] = i
	}
	ctx.Query(0, idx)
}

func (p *nullPeer) OnQueryReply(r sim.QueryReply) {
	p.out = r.Bits
	p.ctx.Send(p.next(), ping{})
}

func (p *nullPeer) OnMessage(from sim.PeerID, m sim.Message) {
	switch m.(type) {
	case ping:
		p.pings++
		p.ctx.Send(from, pong{})
	case pong:
		p.ponged++
		if p.ponged < p.rounds {
			p.ctx.Send(p.next(), ping{})
		}
	}
	if p.out != nil && p.ponged == p.rounds && p.pings == p.rounds {
		p.ctx.Output(p.out)
		p.ctx.Terminate()
	}
}

func nullSpec(n, l, rounds int, seed int64) *sim.Spec {
	return &sim.Spec{
		Config:  sim.Config{N: n, T: 0, L: l, MsgBits: 64, Seed: seed},
		NewPeer: func(sim.PeerID) sim.Peer { return &nullPeer{rounds: rounds} },
		Delays:  adversary.NewRandomUnit(seed),
		Label:   "null",
	}
}

// --- reading the obs registry -------------------------------------------

// seriesSum adds up a metric's series whose labels include all of want.
func seriesSum(s *obs.Snapshot, name string, want map[string]string) float64 {
	var sum float64
	forSeries(s, name, want, func(ss *obs.SeriesSnapshot) { sum += ss.Value })
	return sum
}

func forSeries(s *obs.Snapshot, name string, want map[string]string, f func(*obs.SeriesSnapshot)) {
	if s == nil {
		return
	}
	for i := range s.Metrics {
		if s.Metrics[i].Name != name {
			continue
		}
	series:
		for j := range s.Metrics[i].Series {
			ss := &s.Metrics[i].Series[j]
			for k, v := range want {
				if ss.Labels[k] != v {
					continue series
				}
			}
			f(ss)
		}
	}
}

// histQuantile reads quantile q of a histogram as the upper bound of the
// bucket the q-th observation falls in; observations past the last bound
// read as that bound. 0 when the histogram is empty or absent.
func histQuantile(s *obs.Snapshot, name string, q float64) float64 {
	var out float64
	forSeries(s, name, nil, func(ss *obs.SeriesSnapshot) {
		if ss.Count == 0 || len(ss.Buckets) == 0 {
			return
		}
		target := uint64(math.Ceil(q * float64(ss.Count)))
		var seen uint64
		out = ss.Buckets[len(ss.Buckets)-1].UpperBound
		for _, b := range ss.Buckets {
			seen += b.Count
			if seen >= target {
				out = b.UpperBound
				return
			}
		}
	})
	return out
}

// hubFrames is how many frames of a kind the hub received and sent, and
// their payload bytes.
func hubFrames(s *obs.Snapshot, kind string) (frames, bytes float64) {
	want := map[string]string{"side": "hub", "kind": kind}
	return seriesSum(s, "dr_net_frames_total", want), seriesSum(s, "dr_net_frame_bytes_total", want)
}

// --- reducing a traced pass ----------------------------------------------

// budgetRow is one line of the per-workload budget: a layer's count per
// op times its micro-cost, as a share of the op's CPU time.
type budgetRow struct {
	Layer    string  `json:"layer"`
	Count    float64 `json:"count_per_op"`
	CostNs   float64 `json:"cost_ns"`
	EstMs    float64 `json:"est_ms_per_op"`
	SharePct float64 `json:"share_pct"`
}

// layerMetrics reduces a traced pass to the per-layer metrics and the
// budget table. Counts come from the traced ops (reports and registry),
// op timings and costs from the plain ops of the same pass.
func layerMetrics(w *workload, plain, traced *acc, snap *obs.Snapshot, pr *probes) (map[string]float64, []budgetRow) {
	m := make(map[string]float64, len(perLayer))
	for k, v := range pr.m {
		m[k] = v
	}
	ops := float64(traced.units)
	per := func(v float64) float64 { return ratio(v, ops) }
	o := &traced.out
	payloadPerOp := per(traced.payloadBits)

	// harness: the plain ops of this pass
	s := sortedCopy(plain.samples)
	p50 := percentile(s, 50)
	m["harness.samples"] = float64(len(s))
	m["harness.op_p90_ms"] = percentile(s, 90)
	m["harness.op_p99_ms"] = percentile(s, 99)
	m["harness.op_max_ms"] = percentile(s, 100)
	m["harness.op_iqr_pct"] = 100 * ratio(percentile(s, 75)-percentile(s, 25), p50)
	cpuMs := plain.perUnit(ms(plain.cost.cpu))
	m["harness.cpu_ms_per_op"] = cpuMs
	m["harness.peak_rss_mb"] = peakRSSMB()
	m["harness.gc_cycles_per_op"] = plain.perUnit(float64(plain.cost.gcCycles))
	m["harness.gc_pause_ms_per_op"] = plain.perUnit(ms(plain.cost.gcPause))
	m["harness.allocs_k_per_op"] = plain.perUnit(float64(plain.cost.mallocs)) / 1e3
	m["harness.trace_overhead_pct"] = 100 * (ratio(percentile(sortedCopy(traced.samples), 50), p50) - 1)

	m["protocols.msgs_per_op"] = per(float64(o.Msgs))
	m["protocols.msg_bits_per_op"] = per(float64(o.MsgBits))
	m["protocols.vtime"] = per(o.Time)

	m["source.failures"] = per(float64(o.SourceFailures))
	m["source.retries"] = per(float64(o.SourceRetries))
	m["source.breaker_opens"] = per(float64(o.BreakerOpens))
	m["source.deferred"] = per(float64(o.Deferred))
	m["source.mirror_hits"] = per(float64(o.MirrorHits))
	m["source.proof_failures"] = per(float64(o.ProofFailures))
	m["source.fallback_queries"] = per(float64(o.FallbackQueries))
	mirrorAttempts := float64(o.MirrorHits + o.FallbackQueries)
	m["source.fallback_ratio"] = ratio(float64(o.FallbackQueries), mirrorAttempts)
	m["netrt.rejoins"] = per(float64(o.Rejoins))
	m["netrt.warm_hit_bits"] = per(float64(o.WarmHitBits))
	m["checkpoint.saves"] = per(float64(o.CkptSaves))
	m["checkpoint.restores"] = per(float64(o.CkptRestores))

	if w.layers["des"] {
		busy := traced.busy.Seconds()
		m["des.events_per_s"] = ratio(float64(o.Events), busy)
		m["des.msgs_per_s"] = ratio(float64(o.Msgs), busy)
		m["des.ns_per_event"] = ratio(busy*1e9, float64(o.Events))
		m["des.dispatch_p50_us"] = histQuantile(snap, "dr_sim_dispatch_seconds", 0.5) * 1e6
		m["des.queue_depth_p90"] = histQuantile(snap, "dr_sim_queue_depth", 0.9)
	}

	var msgFrames, qproofFrames float64
	if w.layers["netrt"] {
		frames := make(map[string]float64)
		for _, k := range []string{"MSG", "QUERY", "QREPLY", "QPROOF", "ACK"} {
			frames[k], _ = hubFrames(snap, k)
			m["netrt.frames_per_op."+strings.ToLower(k)] = per(frames[k])
		}
		msgFrames, qproofFrames = frames["MSG"], frames["QPROOF"]
		hub := map[string]string{"side": "hub"}
		all, allBytes := seriesSum(snap, "dr_net_frames_total", hub), seriesSum(snap, "dr_net_frame_bytes_total", hub)
		m["netrt.ack_frame_ratio"] = ratio(frames["ACK"], all)
		m["netrt.wire_bytes_per_payload_bit"] = ratio(per(allBytes), payloadPerOp)
		m["netrt.shard_batch_frames_p50"] = histQuantile(snap, "dr_net_shard_batch_frames", 0.5)
		var flushes, flushed float64
		forSeries(snap, "dr_net_shard_batch_frames", nil, func(ss *obs.SeriesSnapshot) {
			flushes, flushed = flushes+float64(ss.Count), flushed+ss.Value
		})
		m["netrt.flushes_per_kframe"] = 1e3 * ratio(flushes, flushed)
		m["netrt.shard_blocked"] = per(seriesSum(snap, "dr_net_shard_frames_total", map[string]string{"event": "backpressure"}))
		m["netrt.shard_dropped"] = per(seriesSum(snap, "dr_net_shard_frames_total", map[string]string{"event": "conn_down"}))
		m["netrt.query_retries"] = per(seriesSum(snap, "dr_net_query_retries_total", nil))
		m["netrt.reconnects"] = per(seriesSum(snap, "dr_net_reconnects_total", nil))
		m["netrt.dups_dropped"] = per(seriesSum(snap, "dr_net_dup_frames_dropped_total", nil))
		m["netrt.plan_dropped"] = per(seriesSum(snap, "dr_net_plan_dropped_total", nil))
	}

	// The budget: what the counted work costs at the micro-rows' prices.
	// What is left over is the layers that have no price from outside —
	// the protocol logic on des, and on sockets also netrt's own framing,
	// queues and goroutine hand-offs.
	queryCalls := per(seriesSum(snap, "dr_sim_query_calls_total", nil) + seriesSum(snap, "dr_net_query_calls_total", nil))
	// Every payload bit is copied out of some array and learned into a
	// tracker at least once; repeats (committee's 2t+1 copies) are not
	// visible from outside, so this row is a floor.
	movedKbit := payloadPerOp / 1e3
	mirrorReplies := per(float64(o.MirrorHits + o.ProofFailures))
	rows := []budgetRow{
		{Layer: "des", Count: per(float64(o.Events)), CostNs: m["des.null_ns_per_event"]},
		{Layer: "bitarray", Count: movedKbit, CostNs: m["bitarray.learn_range_ns_per_kbit"] + m["bitarray.copy_from_ns_per_kbit"]},
		{Layer: "wire", Count: per(msgFrames) / 2, CostNs: pr.marshalNs + pr.unmarshalNs},
		{Layer: "merkle", Count: mirrorReplies, CostNs: pr.proveNs + pr.verifyNs},
		{Layer: "source", Count: queryCalls, CostNs: pr.fetchNs + 2*m["source.client_step_ns"]},
		{Layer: "netrt.qproof", Count: per(qproofFrames) / 2, CostNs: m["netrt.proofframe_roundtrip_us"] * 1e3},
		{Layer: "checkpoint", Count: 1, CostNs: (m["checkpoint.saves"]*m["checkpoint.save_us"] + m["checkpoint.restores"]*m["checkpoint.load_us"]) * 1e3},
	}
	explained := 0.0
	for i := range rows {
		r := &rows[i]
		r.EstMs = r.Count * r.CostNs / 1e6
		r.SharePct = 100 * ratio(r.EstMs, cpuMs)
		explained += r.SharePct
	}
	m["harness.budget_unexplained_pct"] = 100 - explained
	if w.layers["des"] {
		// On the simulator the remainder is the protocol: no other layer
		// runs there.
		m["protocols."+protocolFamily(w.shape.Protocol)+".cpu_share_est"] = 100 - explained
	}
	return m, rows
}

func protocolFamily(p download.Protocol) string {
	if p == download.Committee {
		return "committee"
	}
	return "crashk"
}
