package netrt

import (
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// events is a run's event stream: Config.Observer, and Config.Timeline
// through sim.TimelineObserver, fed by every client with its own peer's
// events and by the hub with its flaps. Callbacks are serialised under
// mu, so an observer has one caller at a time as on des, and Time — read
// under mu too — is seconds since the run started and never goes back.
// It is nil when neither is set, and every method is a no-op on nil.
type events struct {
	mu    sync.Mutex
	obs   sim.Observer
	kinds sim.KindSet // the kinds obs reads
	start time.Time
}

func newEvents(cfg *Config, start time.Time) *events {
	o := sim.Tee(cfg.Observer, sim.TimelineObserver(cfg.Timeline))
	kinds := sim.KindsOf(o)
	if kinds == 0 {
		return nil
	}
	return &events{obs: o, kinds: kinds, start: start}
}

// reads reports whether the observer reads kind; false when e is nil.
func (e *events) reads(kind sim.KindSet) bool { return e != nil && e.kinds&kind != 0 }

// emit stamps ev as one event of kind and hands it to the observer, if it
// reads that kind.
func (e *events) emit(kind sim.KindSet, ev sim.ObservedEvent) {
	if !e.reads(kind) {
		return
	}
	ev.Kind = kind.Name()
	e.mu.Lock()
	ev.Time = time.Since(e.start).Seconds()
	e.obs.OnEvent(ev)
	e.mu.Unlock()
}

// peer emits a peer's event of a kind that names no counterparty.
func (e *events) peer(kind sim.KindSet, p sim.PeerID, msgType string, bits int) {
	e.emit(kind, sim.ObservedEvent{Peer: p, Other: -1, MsgType: msgType, Bits: bits})
}

// msg emits a send or a deliver of m between p and other, with its type
// label and size as the caller worked them out.
func (e *events) msg(kind sim.KindSet, p, other sim.PeerID, m sim.Message, typ string, bits int) {
	e.emit(kind, sim.ObservedEvent{Peer: p, Other: other, MsgType: typ, Bits: bits, Msg: m})
}

// netMetrics bundles every metric handle the TCP runtime touches. It is
// built once per Run when Config.Metrics is set and stays nil
// otherwise; every method is a no-op on a nil receiver, so
// the hub and client hot paths call them unconditionally and a disabled
// run pays a single pointer nil-check per call site (pinned by
// TestNetMetricsDisabledAllocFree).
//
// Frame counters are fixed arrays indexed by the frame-kind byte: no map
// lookup and no label resolution happens per frame.
type netMetrics struct {
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

	// The hub's connection writers: frames written, frames dropped with
	// their connection, write errors, and frames per writer pass.
	written, connDown, writeErrs *obs.Counter
	batch                        *obs.Histogram
}

// newNetMetrics resolves every handle up front. Returns nil when the
// config enables no metrics.
func newNetMetrics(cfg *Config) *netMetrics {
	reg := cfg.Metrics
	if reg == nil {
		return nil
	}
	m := &netMetrics{}
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
	m.msgs = perPeer(reg.CounterVec("dr_net_msgs_sent_total", "Peer messages sent, in b-bit chunks (the M measure).", "protocol", "peer"), label)
	m.msgBits = perPeer(reg.CounterVec("dr_net_msg_bits_sent_total", "Payload bits sent peer-to-peer.", "protocol", "peer"), label)
	m.reconnects = perPeer(reg.CounterVec("dr_net_reconnects_total", "Client redials that re-established a link.", "peer"))
	m.qretries = perPeer(reg.CounterVec("dr_net_query_retries_total", "Source queries re-sent after a refused or silent attempt.", "peer"))
	m.dups = perPeer(reg.CounterVec("dr_net_dup_frames_dropped_total", "Duplicate frames discarded by dedup.", "peer"))
	m.planDropped = perPeer(reg.CounterVec("dr_net_plan_dropped_total", "Deliveries dropped by the fault plan.", "peer"))
	m.planDup = perPeer(reg.CounterVec("dr_net_plan_duped_total", "Deliveries duplicated by the fault plan.", "peer"))
	m.srcFails = perPeer(reg.CounterVec("dr_net_source_failures_total", "Source queries refused by the source fault plan.", "peer"))
	m.mirHits = perPeer(reg.CounterVec("dr_net_mirror_hits_total", "Queries answered by a verified mirror reply.", "peer"))
	m.mirPfails = perPeer(reg.CounterVec("dr_net_mirror_proof_failures_total", "Mirror replies rejected by Merkle verification.", "peer"))
	m.mirFallbacks = perPeer(reg.CounterVec("dr_net_mirror_fallback_total", "Queries re-issued to the authoritative source.", "peer"))
	// The writer series keep the names they had when the hub had a
	// listener per shard, because the benchmark harness reads them so.
	writes := reg.CounterVec("dr_net_shard_frames_total",
		"Hub connection writer events: frames written, frames dropped with their connection, write errors.",
		"event")
	m.written, m.connDown, m.writeErrs = writes.With("written"), writes.With("conn_down"), writes.With("write_err")
	m.batch = reg.Histogram("dr_net_shard_batch_frames",
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

// peerAdd range-checks ids against hostile hello frames.
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

func (m *netMetrics) msgSent(peer, chunks, bits int) {
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
}

func (m *netMetrics) queryRetry(peer int) {
	if m == nil {
		return
	}
	peerAdd(m.qretries, peer, 1)
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
// a verified hit, or a rejection (with its fallback re-issue).
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
	}
	peerAdd(m.mirFallbacks, peer, 1)
}

// sourceFailure records one injected source refusal toward a peer.
func (m *netMetrics) sourceFailure(peer int) {
	if m == nil {
		return
	}
	peerAdd(m.srcFails, peer, 1)
}

// writerEvent counts n events of one of the hub's connection writers.
func (m *netMetrics) writerEvent(event string, n int) {
	if m == nil {
		return
	}
	switch event {
	case "written":
		m.written.Add(int64(n))
	case "conn_down":
		m.connDown.Add(int64(n))
	case "write_err":
		m.writeErrs.Add(int64(n))
	}
}

// writerBatch records the frames one connection writer pass sent.
func (m *netMetrics) writerBatch(frames int) {
	if m == nil {
		return
	}
	m.batch.Observe(float64(frames))
}
