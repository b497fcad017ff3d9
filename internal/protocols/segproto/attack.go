package segproto

import (
	"repro/internal/bitarray"
	"repro/internal/dtree"
	"repro/internal/sim"
)

// ColludingLiar is the strongest protocol-aware attack on the randomized
// protocols: every Byzantine peer derives the same parameters the honest
// peers use and broadcasts an IDENTICAL forged value (all bits flipped)
// for the same target segment in every cycle. With t ≥ k colluders the
// forged string becomes k-frequent and enters every honest decision tree;
// the protocols survive because the tree's separating-index queries are
// answered by the trusted source, which the forgery cannot match. The
// attack thus maximizes the honest peers' determination cost without
// breaking correctness — exactly the adversary the paper's query-cost
// analysis charges for.
type ColludingLiar struct {
	know *sim.Knowledge
	ctx  sim.Context
}

var _ sim.Peer = (*ColludingLiar)(nil)

// NewColludingLiar builds ColludingLiar behaviors.
func NewColludingLiar(_ sim.PeerID, k *sim.Knowledge) sim.Peer {
	return &ColludingLiar{know: k}
}

// Init implements sim.Peer.
func (a *ColludingLiar) Init(ctx sim.Context) {
	a.ctx = ctx
	cfg := a.know.Config
	params := Derive(cfg.N, cfg.T, cfg.L)
	// Forge for every broadcasting cycle of both schedules, each (cycle,
	// segment count) once; honest peers validate lengths per cycle, so
	// each protocol picks up the messages that parse for it. The naive
	// regime's schedule [1] broadcasts nothing.
	sent := make(map[[2]int]bool)
	for _, dyadic := range []bool{false, true} {
		schedule := params.Schedule(dyadic)
		for c, m := range schedule[:len(schedule)-1] {
			if key := [2]int{c + 1, m}; !sent[key] {
				sent[key] = true
				a.forgeCycle(c+1, m)
			}
		}
	}
}

// forgeCycle broadcasts the flipped value of segment 0 in a partition of
// m segments, labeled as the given cycle.
func (a *ColludingLiar) forgeCycle(cycle, m int) {
	seg := dtree.SegmentOf(a.know.Config.L, m, 0)
	vals := bitarray.New(seg.Len)
	for i := 0; i < seg.Len; i++ {
		vals.Set(i, !a.know.Input.Get(seg.Start+i))
	}
	a.ctx.Broadcast(&SegValue{
		Cycle:   cycle,
		Seg:     0,
		Values:  vals,
		IdxBits: IndexBits(a.know.Config.L),
	})
}

// OnMessage implements sim.Peer.
func (*ColludingLiar) OnMessage(sim.PeerID, sim.Message) {}

// OnQueryReply implements sim.Peer.
func (*ColludingLiar) OnQueryReply(sim.QueryReply) {}

// ScatterLiar broadcasts a distinct forged string per Byzantine peer
// (flip pattern keyed by its ID) for a random segment each — inflating
// tree sizes without ever reaching the frequency threshold. It probes the
// protocols' robustness to sub-threshold noise.
type ScatterLiar struct {
	know *sim.Knowledge
	ctx  sim.Context
}

var _ sim.Peer = (*ScatterLiar)(nil)

// NewScatterLiar builds ScatterLiar behaviors.
func NewScatterLiar(_ sim.PeerID, k *sim.Knowledge) sim.Peer {
	return &ScatterLiar{know: k}
}

// Init implements sim.Peer.
func (a *ScatterLiar) Init(ctx sim.Context) {
	a.ctx = ctx
	cfg := a.know.Config
	params := Derive(cfg.N, cfg.T, cfg.L)
	if params.Naive {
		return
	}
	segIdx := int(ctx.ID()) % params.Segments
	seg := dtree.SegmentOf(cfg.L, params.Segments, segIdx)
	vals := bitarray.New(seg.Len)
	for i := 0; i < seg.Len; i++ {
		v := a.know.Input.Get(seg.Start + i)
		if (i+int(ctx.ID()))%3 == 0 {
			v = !v
		}
		vals.Set(i, v)
	}
	a.ctx.Broadcast(&SegValue{
		Cycle:   1,
		Seg:     segIdx,
		Values:  vals,
		IdxBits: IndexBits(cfg.L),
	})
}

// OnMessage implements sim.Peer.
func (*ScatterLiar) OnMessage(sim.PeerID, sim.Message) {}

// OnQueryReply implements sim.Peer.
func (*ScatterLiar) OnQueryReply(sim.QueryReply) {}
