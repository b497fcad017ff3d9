package netrt

import (
	"strconv"
	"time"

	"repro/internal/obs"
)

// netMetrics bundles every observability handle the TCP runtime touches.
// It is built once per Run when Config.Metrics or Config.Timeline is set
// and stays nil otherwise; every method is a no-op on a nil receiver, so
// the hub and client hot paths call them unconditionally and a disabled
// run pays a single pointer nil-check per call site (pinned by
// TestNetMetricsDisabledAllocFree).
//
// Frame counters are fixed arrays indexed by the frame-kind byte: no map
// lookup and no label resolution happens per frame.
type netMetrics struct {
	tl    *obs.Timeline
	start time.Time

	// Frame and byte counters by (side, direction, kind). The hub and
	// all clients run in one process, so "side" distinguishes the two
	// halves of each link.
	hubFramesTx, hubFramesRx [kLast + 1]*obs.Counter
	cliFramesTx, cliFramesRx [kLast + 1]*obs.Counter
	hubBytesTx, hubBytesRx   [kLast + 1]*obs.Counter
	cliBytesTx, cliBytesRx   [kLast + 1]*obs.Counter

	backoff *obs.Histogram

	// Per-peer handles indexed by peer id.
	queryBits, queryCalls []*obs.Counter
	msgs, msgBits         []*obs.Counter
	reconnects, qretries  []*obs.Counter
	dups                  []*obs.Counter
	planDropped, planDup  []*obs.Counter
	srcFails              []*obs.Counter
	// Mirror-tier verdicts per peer: verified hits, Merkle rejections,
	// and authoritative fallbacks.
	mirHits, mirPfails, mirFallbacks []*obs.Counter

	// Per-shard handles indexed by shard (see shard.go).
	shardWrittenC, shardDownC, shardErrC []*obs.Counter
	shardBatchH                          *obs.Histogram
}

// newNetMetrics resolves every handle up front. Returns nil when the
// config enables neither metrics nor a timeline.
func newNetMetrics(cfg *Config, start time.Time) *netMetrics {
	if cfg.Metrics == nil && cfg.Timeline == nil {
		return nil
	}
	m := &netMetrics{tl: cfg.Timeline, start: start}
	reg := cfg.Metrics
	if reg == nil {
		return m
	}
	label := cfg.Label
	if label == "" {
		label = "unknown"
	}
	frames := reg.CounterVec("dr_net_frames_total", "Frames moved on TCP links.", "side", "dir", "kind")
	bytes := reg.CounterVec("dr_net_frame_bytes_total", "Frame payload bytes moved on TCP links.", "side", "dir", "kind")
	for k := byte(kHello); k <= kLast; k++ {
		kn := kindName(k)
		m.hubFramesTx[k] = frames.With("hub", "tx", kn)
		m.hubFramesRx[k] = frames.With("hub", "rx", kn)
		m.cliFramesTx[k] = frames.With("client", "tx", kn)
		m.cliFramesRx[k] = frames.With("client", "rx", kn)
		m.hubBytesTx[k] = bytes.With("hub", "tx", kn)
		m.hubBytesRx[k] = bytes.With("hub", "rx", kn)
		m.cliBytesTx[k] = bytes.With("client", "tx", kn)
		m.cliBytesRx[k] = bytes.With("client", "rx", kn)
	}
	m.backoff = reg.Histogram("dr_net_backoff_seconds",
		"Reconnect backoff sleeps.", obs.ExpBuckets(1e-3, 4, 8))
	qBits := reg.CounterVec("dr_net_query_bits_total", "Source bits charged per peer at Query (the Q measure).", "protocol", "peer")
	qCalls := reg.CounterVec("dr_net_query_calls_total", "Source queries charged per peer.", "protocol", "peer")
	msgs := reg.CounterVec("dr_net_msgs_sent_total", "Peer messages routed, in b-bit chunks (the M measure).", "protocol", "peer")
	msgBits := reg.CounterVec("dr_net_msg_bits_sent_total", "Payload bits routed peer-to-peer.", "protocol", "peer")
	recon := reg.CounterVec("dr_net_reconnects_total", "Client redials that re-established a link.", "peer")
	qret := reg.CounterVec("dr_net_query_retries_total", "Source queries re-sent after a refused or silent attempt.", "peer")
	dups := reg.CounterVec("dr_net_dup_frames_dropped_total", "Duplicate frames discarded by dedup.", "peer")
	pdrop := reg.CounterVec("dr_net_plan_dropped_total", "Deliveries dropped by the fault plan.", "peer")
	pdup := reg.CounterVec("dr_net_plan_duped_total", "Deliveries duplicated by the fault plan.", "peer")
	sfail := reg.CounterVec("dr_net_source_failures_total", "Source queries refused by the source fault plan.", "peer")
	mhits := reg.CounterVec("dr_net_mirror_hits_total", "Queries answered by a verified mirror reply.", "peer")
	mpfail := reg.CounterVec("dr_net_mirror_proof_failures_total", "Mirror replies rejected by Merkle verification.", "peer")
	mfb := reg.CounterVec("dr_net_mirror_fallback_total", "Queries re-issued to the authoritative source.", "peer")
	n := cfg.N
	m.queryBits = make([]*obs.Counter, n)
	m.queryCalls = make([]*obs.Counter, n)
	m.msgs = make([]*obs.Counter, n)
	m.msgBits = make([]*obs.Counter, n)
	m.reconnects = make([]*obs.Counter, n)
	m.qretries = make([]*obs.Counter, n)
	m.dups = make([]*obs.Counter, n)
	m.planDropped = make([]*obs.Counter, n)
	m.planDup = make([]*obs.Counter, n)
	m.srcFails = make([]*obs.Counter, n)
	m.mirHits = make([]*obs.Counter, n)
	m.mirPfails = make([]*obs.Counter, n)
	m.mirFallbacks = make([]*obs.Counter, n)
	for i := 0; i < n; i++ {
		id := strconv.Itoa(i)
		m.queryBits[i] = qBits.With(label, id)
		m.queryCalls[i] = qCalls.With(label, id)
		m.msgs[i] = msgs.With(label, id)
		m.msgBits[i] = msgBits.With(label, id)
		m.reconnects[i] = recon.With(id)
		m.qretries[i] = qret.With(id)
		m.dups[i] = dups.With(id)
		m.planDropped[i] = pdrop.With(id)
		m.planDup[i] = pdup.With(id)
		m.srcFails[i] = sfail.With(id)
		m.mirHits[i] = mhits.With(id)
		m.mirPfails[i] = mpfail.With(id)
		m.mirFallbacks[i] = mfb.With(id)
	}
	nShards := cfg.Shards
	if nShards < 1 {
		nShards = 1
	}
	shardVec := reg.CounterVec("dr_net_shard_frames_total",
		"Hub connection writer events, by the shard of the peer: frames written, frames dropped with their connection, write errors.",
		"shard", "event")
	m.shardWrittenC = make([]*obs.Counter, nShards)
	m.shardDownC = make([]*obs.Counter, nShards)
	m.shardErrC = make([]*obs.Counter, nShards)
	for i := 0; i < nShards; i++ {
		id := strconv.Itoa(i)
		m.shardWrittenC[i] = shardVec.With(id, "written")
		m.shardDownC[i] = shardVec.With(id, "conn_down")
		m.shardErrC[i] = shardVec.With(id, "write_err")
	}
	m.shardBatchH = reg.Histogram("dr_net_shard_batch_frames",
		"Frames sent per connection writer pass.", obs.ExpBuckets(1, 2, 8))
	return m
}

func validKind(k byte) bool { return k >= kHello && k <= kLast }

func (m *netMetrics) hubTx(kind byte, payloadLen int) {
	if m == nil || !validKind(kind) {
		return
	}
	m.hubFramesTx[kind].Inc()
	m.hubBytesTx[kind].Add(int64(payloadLen))
}

func (m *netMetrics) hubRx(kind byte, payloadLen int) {
	if m == nil || !validKind(kind) {
		return
	}
	m.hubFramesRx[kind].Inc()
	m.hubBytesRx[kind].Add(int64(payloadLen))
}

func (m *netMetrics) cliTx(kind byte, payloadLen int) {
	if m == nil || !validKind(kind) {
		return
	}
	m.cliFramesTx[kind].Inc()
	m.cliBytesTx[kind].Add(int64(payloadLen))
}

func (m *netMetrics) cliRx(kind byte, payloadLen int) {
	if m == nil || !validKind(kind) {
		return
	}
	m.cliFramesRx[kind].Inc()
	m.cliBytesRx[kind].Add(int64(payloadLen))
}

func (m *netMetrics) backoffObserve(d time.Duration) {
	if m == nil {
		return
	}
	m.backoff.Observe(d.Seconds())
}

// peerAdd guards the per-peer slices: they are nil when only a timeline
// is attached, and ids are range-checked against hostile hello frames.
func peerAdd(handles []*obs.Counter, peer int, n int64) {
	if peer >= 0 && peer < len(handles) {
		handles[peer].Add(n)
	}
}

func (m *netMetrics) queryCharged(peer, bits int) {
	if m == nil {
		return
	}
	peerAdd(m.queryBits, peer, int64(bits))
	peerAdd(m.queryCalls, peer, 1)
}

func (m *netMetrics) msgRouted(peer, chunks, bits int) {
	if m == nil {
		return
	}
	peerAdd(m.msgs, peer, int64(chunks))
	peerAdd(m.msgBits, peer, int64(bits))
}

func (m *netMetrics) reconnect(peer int) {
	if m == nil {
		return
	}
	peerAdd(m.reconnects, peer, 1)
	m.mark(peer, "reconnect", "")
}

func (m *netMetrics) queryRetry(peer int) {
	if m == nil {
		return
	}
	peerAdd(m.qretries, peer, 1)
	m.mark(peer, "qretry", "")
}

func (m *netMetrics) dupDropped(peer int) {
	if m == nil {
		return
	}
	peerAdd(m.dups, peer, 1)
}

func (m *netMetrics) planDrop(peer int) {
	if m == nil {
		return
	}
	peerAdd(m.planDropped, peer, 1)
}

func (m *netMetrics) planDupe(peer int) {
	if m == nil {
		return
	}
	peerAdd(m.planDup, peer, 1)
}

// mirrorVerdict records the outcome of one proof-carrying mirror reply:
// a verified hit, or a rejection (with its fallback re-issue). The
// timeline mark makes proof failures visible in drtrace.
func (m *netMetrics) mirrorVerdict(peer int, verified, refused bool) {
	if m == nil {
		return
	}
	if verified {
		peerAdd(m.mirHits, peer, 1)
		return
	}
	if !refused {
		peerAdd(m.mirPfails, peer, 1)
		m.mark(peer, "prooffail", "")
	}
	peerAdd(m.mirFallbacks, peer, 1)
}

// sourceFailure records one injected source refusal toward a peer; the
// timeline mark carries the failure kind.
func (m *netMetrics) sourceFailure(peer int, kind string) {
	if m == nil {
		return
	}
	peerAdd(m.srcFails, peer, 1)
	m.mark(peer, "srcfail", kind)
}

// shardEventN counts n connection writer events under their peer's shard.
func (m *netMetrics) shardEventN(idx int, event string, n int) {
	if m == nil {
		return
	}
	var handles []*obs.Counter
	switch event {
	case "written":
		handles = m.shardWrittenC
	case "conn_down":
		handles = m.shardDownC
	case "write_err":
		handles = m.shardErrC
	}
	if idx >= 0 && idx < len(handles) {
		handles[idx].Add(int64(n))
	}
}

// shardBatch records the frames one connection writer pass sent.
func (m *netMetrics) shardBatch(frames int) {
	if m == nil || m.shardBatchH == nil {
		return
	}
	m.shardBatchH.Observe(float64(frames))
}

// mark records a timeline event stamped with wall-clock seconds since
// run start — the TCP runtime's analogue of virtual time.
func (m *netMetrics) mark(peer int, kind, name string) {
	if m == nil || m.tl == nil {
		return
	}
	m.tl.Mark(time.Since(m.start).Seconds(), peer, kind, name)
}
