package sim

import (
	"math/bits"
	"reflect"

	"repro/internal/obs"
)

// Observer receives a run's structured events: the one per-event channel
// of every runtime (Spec.Observer on des, netrt.Config.Observer on
// sockets). Callbacks come one at a time — on des from the engine's
// goroutine, on netrt under one mutex per run — so an observer needs no
// locking of its own. They must be fast and must not call back into the
// runtime.
//
// An observer may also implement Kinds() KindSet to name the kinds it
// reads; runtimes then build and deliver no event of any other kind. An
// observer without the method reads every kind.
type Observer interface {
	OnEvent(ev ObservedEvent)
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

func (t tee) OnEvent(ev ObservedEvent) {
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
func (o timelineObserver) OnEvent(ev ObservedEvent) {
	switch ev.Kind {
	case "phase", "terminate", "crash", "rejoin", "qfail", "reconnect", "qretry", "prooffail", "flap":
		o.tl.Mark(ev.Time, int(ev.Peer), ev.Kind, ev.Name)
	}
}
