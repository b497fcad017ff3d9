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

	// Frame and byte counters by [side][direction][kind]. The hub and
	// all clients run in one process, so "side" distinguishes the two
	// halves of each link.
	frames, bytes [2][2][kLast + 1]*obs.Counter

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
		for side, sn := range [2]string{"hub", "client"} {
			for dir, dn := range [2]string{"tx", "rx"} {
				m.frames[side][dir][k] = frames.With(sn, dn, kindName(k))
				m.bytes[side][dir][k] = bytes.With(sn, dn, kindName(k))
			}
		}
	}
	m.backoff = reg.Histogram("dr_net_backoff_seconds",
		"Reconnect backoff sleeps.", obs.ExpBuckets(1e-3, 4, 8))
	// perPeer resolves vec's series for every peer id, the label values
	// ahead of the id given.
	perPeer := func(vec *obs.CounterVec, values ...string) []*obs.Counter {
		hs := make([]*obs.Counter, cfg.N)
		for i := range hs {
			hs[i] = vec.With(append(values[:len(values):len(values)], strconv.Itoa(i))...)
		}
		return hs
	}
	m.queryBits = perPeer(reg.CounterVec("dr_net_query_bits_total", "Source bits charged per peer at Query (the Q measure).", "protocol", "peer"), label)
	m.queryCalls = perPeer(reg.CounterVec("dr_net_query_calls_total", "Source queries charged per peer.", "protocol", "peer"), label)
	m.msgs = perPeer(reg.CounterVec("dr_net_msgs_sent_total", "Peer messages routed, in b-bit chunks (the M measure).", "protocol", "peer"), label)
	m.msgBits = perPeer(reg.CounterVec("dr_net_msg_bits_sent_total", "Payload bits routed peer-to-peer.", "protocol", "peer"), label)
	m.reconnects = perPeer(reg.CounterVec("dr_net_reconnects_total", "Client redials that re-established a link.", "peer"))
	m.qretries = perPeer(reg.CounterVec("dr_net_query_retries_total", "Source queries re-sent after a refused or silent attempt.", "peer"))
	m.dups = perPeer(reg.CounterVec("dr_net_dup_frames_dropped_total", "Duplicate frames discarded by dedup.", "peer"))
	m.planDropped = perPeer(reg.CounterVec("dr_net_plan_dropped_total", "Deliveries dropped by the fault plan.", "peer"))
	m.planDup = perPeer(reg.CounterVec("dr_net_plan_duped_total", "Deliveries duplicated by the fault plan.", "peer"))
	m.srcFails = perPeer(reg.CounterVec("dr_net_source_failures_total", "Source queries refused by the source fault plan.", "peer"))
	m.mirHits = perPeer(reg.CounterVec("dr_net_mirror_hits_total", "Queries answered by a verified mirror reply.", "peer"))
	m.mirPfails = perPeer(reg.CounterVec("dr_net_mirror_proof_failures_total", "Mirror replies rejected by Merkle verification.", "peer"))
	m.mirFallbacks = perPeer(reg.CounterVec("dr_net_mirror_fallback_total", "Queries re-issued to the authoritative source.", "peer"))
	nShards := cfg.shards()
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

// The sides and directions of the frame counters.
const (
	sideHub, sideClient = 0, 1
	dirTx, dirRx        = 0, 1
)

// frame counts one frame of kind, with a payload of payloadLen bytes, sent
// (dirTx) or received (dirRx) by the hub (sideHub) or a client.
func (m *netMetrics) frame(side, dir int, kind byte, payloadLen int) {
	if m == nil || kind < kHello || kind > kLast {
		return
	}
	m.frames[side][dir][kind].Inc()
	m.bytes[side][dir][kind].Add(int64(payloadLen))
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
