package sim

import (
	"math/bits"
	"reflect"
	"strconv"

	"repro/internal/obs"
)

// Observer receives a run's structured events: the one per-event channel
// of every runtime (Spec.Observer, on des and on sockets alike). Callbacks
// come one at a time — on des from the engine's goroutine, on netrt under
// one mutex per run — so an observer needs no locking of its own. They
// must be fast and must not call back into the runtime. The event is the
// runtime's: read-only, and valid only for the call, so an observer that
// keeps one copies *ev.
//
// An observer may also implement Kinds() KindSet to name the kinds it
// reads; runtimes then build and deliver no event of any other kind. An
// observer without the method reads every kind.
type Observer interface {
	OnEvent(ev *ObservedEvent)
}

// KindSet is a set of event kinds, one bit per kind.
type KindSet uint16

// The event kinds, in the order of their bits.
const (
	KindStart KindSet = 1 << iota
	KindSend
	KindDeliver
	KindQuery
	KindQReply
	KindQFail
	KindCrash
	KindRejoin
	KindTerminate
	KindPhase
	KindReconnect
	KindQRetry
	KindProofFail
	KindFlap

	// AllKinds is every kind.
	AllKinds KindSet = 1<<iota - 1
)

var kindNames = [...]string{"start", "send", "deliver", "query", "qreply", "qfail",
	"crash", "rejoin", "terminate", "phase", "reconnect", "qretry", "prooffail", "flap"}

// Name is the stream's name of a one-kind set: ObservedEvent.Kind.
func (k KindSet) Name() string { return kindNames[bits.TrailingZeros16(uint16(k))] }

// KindsOf returns the kinds o reads: none for nil, all unless o names them.
func KindsOf(o Observer) KindSet {
	switch o := o.(type) {
	case nil:
		return 0
	case interface{ Kinds() KindSet }:
		return o.Kinds()
	}
	return AllKinds
}

// ObservedEvent is one structured runtime event.
type ObservedEvent struct {
	// Time is the virtual time of the event on des, and seconds since
	// the run started on netrt.
	Time float64 `json:"t"`
	// Kind is one of "start", "send", "deliver", "query", "qreply",
	// "qfail", "crash", "rejoin", "terminate", "phase", or one of the
	// socket-only kinds "reconnect", "qretry", "prooffail" and "flap".
	// For "qfail" events MsgType carries the source failure kind.
	Kind string `json:"kind"`
	// Peer is the acting peer (sender, receiver, querier, …).
	Peer PeerID `json:"peer"`
	// Other is the counterparty for send/deliver (receiver resp. sender),
	// -1 for the other kinds.
	Other PeerID `json:"other,omitempty"`
	// MsgType is the message type (MsgType) for send/deliver.
	MsgType string `json:"msg,omitempty"`
	// Bits is the message's SizeBits for send/deliver, the charged bits
	// for query, or the number of indices for qreply/qfail.
	Bits int `json:"bits,omitempty"`
	// Name is the phase name for "phase" events (Context.MarkPhase).
	Name string `json:"name,omitempty"`
	// Msg is the message payload for send/deliver events. It is shared
	// with the execution — observers must treat it as read-only — and is
	// excluded from JSON traces (MsgType/Bits summarize it there).
	Msg Message `json:"-"`
}

// MsgType is the type label events carry for m, e.g. "*committee.Report"
// (what fmt's %T prints). Runtimes call it only with an observer attached.
func MsgType(m Message) string { return reflect.TypeOf(m).String() }

// Tee returns an observer that hands every event to each non-nil one of
// list in order, or nil when all are nil.
func Tee(list ...Observer) Observer {
	var live tee
	for _, o := range list {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return live
}

type tee []Observer

func (t tee) OnEvent(ev *ObservedEvent) {
	for _, o := range t {
		o.OnEvent(ev)
	}
}

// Kinds is the union of the kinds the observers read. An event reaches
// every observer of the tee, so one that names its kinds still filters.
func (t tee) Kinds() KindSet {
	var k KindSet
	for _, o := range t {
		k |= KindsOf(o)
	}
	return k
}

// TimelineObserver is tl as an observer: a view of the stream that marks
// its lifecycle events (phases, crashes, rejoins, terminations and the
// socket recovery kinds) on tl, or nil when tl is nil.
func TimelineObserver(tl *obs.Timeline) Observer {
	if tl == nil {
		return nil
	}
	return timelineObserver{tl}
}

type timelineObserver struct{ tl *obs.Timeline }

// timelineKinds are the lifecycle kinds a timeline marks; the per-message
// and per-query traffic stays in the full stream.
const timelineKinds = KindPhase | KindTerminate | KindCrash | KindRejoin | KindQFail |
	KindReconnect | KindQRetry | KindProofFail | KindFlap

func (timelineObserver) Kinds() KindSet { return timelineKinds }

// OnEvent marks the lifecycle kinds; in a tee it also sees the others.
func (o timelineObserver) OnEvent(ev *ObservedEvent) {
	switch ev.Kind {
	case "phase", "terminate", "crash", "rejoin", "qfail", "reconnect", "qretry", "prooffail", "flap":
		o.tl.Mark(ev.Time, int(ev.Peer), ev.Kind, ev.Name)
	}
}

// The per-peer series the metrics fold keeps, each under the runtime's
// prefix and labeled by protocol and peer.
const (
	seriesQueryBits = iota
	seriesQueryCalls
	seriesMsgs
	seriesMsgBits
	seriesCrashes
	seriesTerms
	seriesReconnects
	seriesQRetries
	numSeries
)

var foldedSeries = [numSeries]struct{ name, help string }{
	{"_query_bits_total", "Source bits charged at Query (the Q measure)."},
	{"_query_calls_total", "Source Query invocations."},
	{"_msgs_sent_total", "Peer messages sent, in b-bit chunks (the M measure)."},
	{"_msg_bits_sent_total", "Payload bits sent peer-to-peer."},
	{"_crashes_total", "Peer crashes executed by the fault adversary."},
	{"_terminations_total", "Peer terminations."},
	{"_reconnects_total", "Client redials that re-established a link."},
	{"_query_retries_total", "Source queries re-sent after a refused or silent attempt."},
}

// metricsKinds are the kinds the metrics fold reads.
const metricsKinds = KindQuery | KindSend | KindCrash | KindTerminate | KindReconnect | KindQRetry | KindQFail

// MetricsObserver is the protocol metrics of a run as a fold of its event
// stream into reg, or nil when reg is nil. Each query, send, crash,
// termination, reconnect and query retry adds to its peer's series
// prefix+"_query_bits_total" and so on (see foldedSeries); a send counts
// ⌈bits/msgBits⌉ messages, at least one, as M charges it. Each qfail adds
// to dr_source_failures_total by its failure kind. The prefix is the
// runtime's (dr_sim on des, dr_net on sockets); label is the "protocol"
// label value.
func MetricsObserver(reg *obs.Registry, prefix, label string, msgBits int) Observer {
	if reg == nil {
		return nil
	}
	m := &metricsObserver{msgBits: msgBits, label: metricLabel(label)}
	for i, s := range foldedSeries {
		m.vecs[i] = reg.CounterVec(prefix+s.name, s.help, "protocol", "peer")
	}
	m.fails = reg.CounterVec("dr_source_failures_total",
		"Source query attempts that failed, by failure kind.", "protocol", "kind")
	return m
}

type metricsObserver struct {
	msgBits int
	label   string
	vecs    [numSeries]*obs.CounterVec
	// peers holds each series' counters by peer id, each resolved at its
	// peer's first event of the series.
	peers [numSeries][]*obs.Counter
	fails *obs.CounterVec
}

func (*metricsObserver) Kinds() KindSet { return metricsKinds }

// OnEvent folds the kinds it reads; in a tee it also sees the others.
func (m *metricsObserver) OnEvent(ev *ObservedEvent) {
	switch ev.Kind {
	case "query":
		m.add(seriesQueryBits, ev.Peer, ev.Bits)
		m.add(seriesQueryCalls, ev.Peer, 1)
	case "send":
		m.add(seriesMsgs, ev.Peer, max(1, (ev.Bits+m.msgBits-1)/m.msgBits))
		m.add(seriesMsgBits, ev.Peer, ev.Bits)
	case "crash":
		m.add(seriesCrashes, ev.Peer, 1)
	case "terminate":
		m.add(seriesTerms, ev.Peer, 1)
	case "reconnect":
		m.add(seriesReconnects, ev.Peer, 1)
	case "qretry":
		m.add(seriesQRetries, ev.Peer, 1)
	case "qfail":
		m.fails.With(m.label, ev.MsgType).Inc()
	}
}

func (m *metricsObserver) add(s int, p PeerID, n int) {
	hs := m.peers[s]
	if int(p) >= len(hs) {
		hs = append(hs, make([]*obs.Counter, int(p)+1-len(hs))...)
		m.peers[s] = hs
	}
	if hs[p] == nil {
		hs[p] = m.vecs[s].With(m.label, strconv.Itoa(int(p)))
	}
	hs[p].Add(int64(n))
}

// planSeries are the query plane's counters that no event carries.
var planSeries = [...]struct {
	name, help string
	of         func(*PeerStats) int
}{
	{"dr_source_retries_total", "Source query attempts re-issued after a failure.",
		func(s *PeerStats) int { return s.SourceRetries }},
	{"dr_source_breaker_opens_total", "Circuit-breaker open transitions.",
		func(s *PeerStats) int { return s.BreakerOpens }},
	{"dr_source_deferred_total", "Queries parked while a breaker was open.",
		func(s *PeerStats) int { return s.DeferredQueries }},
	{"dr_mirror_hits_total", "Queries answered by a verified mirror reply.",
		func(s *PeerStats) int { return s.MirrorHits }},
	{"dr_mirror_proof_failures_total", "Mirror replies rejected by Merkle verification.",
		func(s *PeerStats) int { return s.ProofFailures }},
	{"dr_mirror_fallback_total", "Queries re-issued to the authoritative source.",
		func(s *PeerStats) int { return s.FallbackQueries }},
}

// PublishPlane adds a run's settled query-plane counters, summed over
// perPeer, to reg's dr_source_* and dr_mirror_* series of the protocol
// label: the retries, breaker opens, deferred queries, mirror hits, proof
// failures and fallbacks that no event carries. Both runtimes call it once
// per run with a source plan or mirrors; a nil reg is a no-op.
func PublishPlane(reg *obs.Registry, label string, perPeer []PeerStats) {
	if reg == nil {
		return
	}
	label = metricLabel(label)
	for _, s := range planSeries {
		n := 0
		for i := range perPeer {
			n += s.of(&perPeer[i])
		}
		reg.CounterVec(s.name, s.help, "protocol").With(label).Add(int64(n))
	}
}

// metricLabel is a run's "protocol" label value: label, or "unknown".
func metricLabel(label string) string {
	if label == "" {
		return "unknown"
	}
	return label
}
