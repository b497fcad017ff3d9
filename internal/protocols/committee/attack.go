package committee

import "repro/internal/sim"

// Protocol-aware Byzantine attackers used in tests and experiments. They
// forge well-formed Reports, which is strictly stronger than the generic
// noise behaviors in package adversary.

// Liar is a Byzantine committee member that reports the complement of
// every bit it is responsible for, identically to all peers — the
// strongest consistent-lie attack against the t+1 acceptance threshold.
type Liar struct {
	know *sim.Knowledge
	ctx  sim.Context
}

var _ sim.Peer = (*Liar)(nil)

// NewLiar builds Liar behaviors.
func NewLiar(_ sim.PeerID, k *sim.Knowledge) sim.Peer { return &Liar{know: k} }

// Init implements sim.Peer.
func (a *Liar) Init(ctx sim.Context) {
	a.ctx = ctx
	ctx.Broadcast(forge(ctx.ID(), a.know, true))
}

// OnMessage implements sim.Peer.
func (a *Liar) OnMessage(sim.PeerID, sim.Message) {}

// OnQueryReply implements sim.Peer.
func (a *Liar) OnQueryReply(sim.QueryReply) {}

// Equivocator sends the true values to even-numbered peers and flipped
// values to odd-numbered peers, probing for acceptance-rule asymmetries.
type Equivocator struct {
	know *sim.Knowledge
	ctx  sim.Context
}

var _ sim.Peer = (*Equivocator)(nil)

// NewEquivocator builds Equivocator behaviors.
func NewEquivocator(_ sim.PeerID, k *sim.Knowledge) sim.Peer { return &Equivocator{know: k} }

// Init implements sim.Peer.
func (a *Equivocator) Init(ctx sim.Context) {
	a.ctx = ctx
	truth := forge(ctx.ID(), a.know, false)
	lies := forge(ctx.ID(), a.know, true)
	for j := 0; j < ctx.N(); j++ {
		id := sim.PeerID(j)
		if id == ctx.ID() {
			continue
		}
		if j%2 == 0 {
			ctx.Send(id, truth)
		} else {
			ctx.Send(id, lies)
		}
	}
}

// OnMessage implements sim.Peer.
func (a *Equivocator) OnMessage(sim.PeerID, sim.Message) {}

// OnQueryReply implements sim.Peer.
func (a *Equivocator) OnQueryReply(sim.QueryReply) {}

// forge builds the Report peer id owes under k's configuration, with the
// true values or with every one of them complemented.
func forge(id sim.PeerID, k *sim.Knowledge, flip bool) *Report {
	cfg := k.Config
	mine := Assignments(id, cfg.L, cfg.N, cfg.T)
	vals := k.Input.Gather(mine)
	if flip {
		vals.Not()
	}
	return &Report{Indices: mine, Bits: vals, IdxBits: indexBits(cfg.L)}
}
