package netrt

import (
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// events is a run's event stream: sim.Spec.Observer and the protocol
// metrics of sim.Spec.Metrics through sim.MetricsObserver, fed by every
// client with its own peer's events and by the hub with its flaps. Callbacks are serialised under
// mu, so an observer has one caller at a time as on des, and Time — read
// under mu too — is seconds since the run started and never goes back.
// It is nil when none is set, and every method is a no-op on nil.
type events struct {
	mu    sync.Mutex
	obs   sim.Observer
	kinds sim.KindSet // the kinds obs reads
	start time.Time
	// ev is the event being handed to obs, refilled under mu for each
	// event, so passing its address allocates nothing.
	ev sim.ObservedEvent
}

func newEvents(spec *sim.Spec, start time.Time) *events {
	o := sim.Tee(spec.Observer,
		sim.MetricsObserver(spec.Metrics, "dr_net", spec.Label, spec.Config.MsgBits))
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
	e.ev = ev
	e.ev.Time = time.Since(e.start).Seconds()
	e.obs.OnEvent(&e.ev)
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

// netMetrics bundles the transport's metric handles: frames, bytes,
// backoff, dedup, malformed-body, fault-plan and writer counters, which
// no event carries (the protocol series are the fold in events). It is
// built once per run when sim.Spec.Metrics is set and stays nil
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
	dups, malformed      []*obs.Counter
	planDropped, planDup []*obs.Counter

	// The hub's connection writers: frames written, frames dropped with
	// their connection, write errors, and frames per writer pass.
	written, connDown, writeErrs *obs.Counter
	batch                        *obs.Histogram
}

// newNetMetrics resolves every handle up front. Returns nil when the
// spec enables no metrics.
func newNetMetrics(spec *sim.Spec) *netMetrics {
	reg := spec.Metrics
	if reg == nil {
		return nil
	}
	m := &netMetrics{}
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
	// perPeer resolves vec's series for every peer id.
	perPeer := func(vec *obs.CounterVec) []*obs.Counter {
		hs := make([]*obs.Counter, spec.Config.N)
		for i := range hs {
			hs[i] = vec.With(strconv.Itoa(i))
		}
		return hs
	}
	m.dups = perPeer(reg.CounterVec("dr_net_dup_frames_dropped_total", "Duplicate frames discarded by dedup.", "peer"))
	m.malformed = perPeer(reg.CounterVec("dr_net_malformed_frames_dropped_total", "Admitted MSG frames dropped because their body does not decode.", "peer"))
	m.planDropped = perPeer(reg.CounterVec("dr_net_plan_dropped_total", "Deliveries dropped by the fault plan.", "peer"))
	m.planDup = perPeer(reg.CounterVec("dr_net_plan_duped_total", "Deliveries duplicated by the fault plan.", "peer"))
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

func (m *netMetrics) dupDropped(peer int) {
	if m == nil {
		return
	}
	peerAdd(m.dups, peer, 1)
}

func (m *netMetrics) malformedDropped(peer int) {
	if m == nil {
		return
	}
	peerAdd(m.malformed, peer, 1)
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
