// Package sim defines the shared contract of the Data Retrieval (DR) model
// simulation: the peer interface protocols implement, the context a runtime
// provides to peers, faulty peers' fates and delay policies, and execution
// specs/results.
//
// The DR model (Augustine et al.): n peers on a complete asynchronous
// network plus a trusted external source storing an L-bit array X. Peers
// learn X either through cheap peer-to-peer messages of at most b bits or
// through expensive source queries. Up to t = βn peers are faulty (crash or
// Byzantine). The headline complexity measure is the query complexity Q —
// the maximum number of bits queried by any nonfaulty peer.
//
// Two runtimes execute the same protocols: package des (deterministic
// discrete-event; scheduled by a delay policy on virtual time, or event by
// event by a chooser) and package netrt (every peer a client of one hub
// over real TCP sockets, each peer on its own goroutines).
package sim

import (
	"math/rand"

	"repro/internal/bitarray"
)

// PeerID identifies a peer; IDs are dense in [0, n).
type PeerID int

// Message is any protocol message. SizeBits is used for message-complexity
// accounting: a message of s bits counts as ceil(s/b) network messages.
//
// A message handed to Send or Broadcast is frozen: des delivers the one
// pointer to every recipient, and neither the sender, the runtime, an
// observer nor a recipient writes to it again (adversary.Forgeable returns
// a deep copy for that reason).
// Whatever a message type caches on itself must be a function of its own
// fields and of a key it checks on every use — a Byzantine sender may relay
// another peer's pointer under its own id — and safe to fill concurrently.
type Message interface {
	SizeBits() int
}

// QueryReply carries the source's answer to a Query call: Bits.Get(j) is
// X[Indices[j]]. Tag echoes the tag passed to Query so protocols can
// correlate replies with outstanding requests.
//
// Indices and Bits belong to the receiving peer from delivery on: no
// runtime reads or writes them afterwards, so a peer may keep them or put
// them in a message without a copy. On every runtime Indices is the slice
// the peer itself passed to Query, which Context.Query forbids writing to
// after the call, and Bits a fresh array (the oracle's gather, the
// source's or the wire's reply, or the warm merge); the qplane.Call that
// held them is dropped at delivery.
type QueryReply struct {
	Tag     int
	Indices []int
	Bits    *bitarray.Array
}

// Peer is an event-driven protocol state machine. A runtime calls Init
// exactly once, then delivers events via OnMessage and OnQueryReply. All
// calls for one peer happen sequentially (never concurrently), so peer
// state needs no locking. Peers drive progress from inside handlers using
// the Context captured in Init.
type Peer interface {
	// Init is called once before any event delivery. The peer must retain
	// ctx for all subsequent sends, queries, and termination.
	Init(ctx Context)
	// OnMessage delivers a peer-to-peer message.
	OnMessage(from PeerID, m Message)
	// OnQueryReply delivers a source query response.
	OnQueryReply(r QueryReply)
}

// Context is the runtime-provided environment for one peer. All methods
// must be called only from the peer's own Init/OnMessage/OnQueryReply.
type Context interface {
	// ID returns this peer's identifier.
	ID() PeerID
	// N returns the number of peers.
	N() int
	// T returns the maximum number of faulty peers the execution tolerates.
	T() int
	// L returns the input array length in bits.
	L() int
	// MsgBits returns the message-size parameter b in bits.
	MsgBits() int

	// Send transmits m to peer `to`. Delivery is asynchronous with
	// adversary-controlled finite delay. Self-sends are not delivered.
	Send(to PeerID, m Message)
	// Broadcast sends m to every other peer (n-1 individual sends; a
	// crash may occur between them).
	Broadcast(m Message)
	// Query asynchronously requests the source values at the given
	// indices; the reply arrives later via OnQueryReply carrying tag.
	// Query complexity accounting charges len(indices) bits immediately.
	// The runtime keeps indices as the reply's Indices: do not write to
	// it afterwards.
	Query(tag int, indices []int)

	// Output records the peer's output array (its claim about X).
	Output(out *bitarray.Array)
	// Terminate halts the peer: no further events are delivered and
	// further Send/Query calls are dropped.
	Terminate()

	// Rand returns this peer's private seeded randomness source.
	Rand() *rand.Rand
	// Now returns the current virtual time (des) or elapsed wall seconds
	// (netrt); message delays are normalized so one time unit is the
	// maximum network latency under the default delay policy.
	Now() float64
	// MarkPhase records that the peer entered the named protocol phase
	// ("download", "verify", …): a "phase" event on the run's Observer,
	// and nothing when none is attached. Phase transitions are rare
	// (O(log n) per execution), so protocols call it unconditionally.
	MarkPhase(name string)
}

// DelayPolicy is the adversary's scheduling power: it assigns every
// message and query a finite positive delay, per the asynchronous model.
// Implementations must be deterministic given their own seed so that des
// executions are reproducible.
type DelayPolicy interface {
	// MessageDelay returns the latency of a message from→to sent at now.
	MessageDelay(from, to PeerID, now float64, sizeBits int) float64
	// QueryDelay returns the round-trip latency of a source query by p.
	QueryDelay(p PeerID, now float64) float64
	// StartDelay returns when peer p begins executing (non-simultaneous
	// start is allowed by the model).
	StartDelay(p PeerID) float64
}
