// Package naive implements the trivial Download protocol: every peer
// queries the entire input array directly and never communicates.
//
// Its query complexity Q = L is prohibitive, but it is the benchmark
// baseline and — by Theorems 3.1 and 3.2 of the paper — essentially the
// only correct deterministic protocol once the Byzantine fraction reaches
// one half: it tolerates any number of faults of any kind.
package naive

import (
	"repro/internal/bitarray"
	"repro/internal/sim"
)

// Peer queries every bit of X and terminates. It works under any fault
// model and any β < 1 because it trusts only the source.
type Peer struct {
	ctx   sim.Context
	track *bitarray.Tracker
	// batch bounds the indices per query call, exercising multi-reply
	// assembly; 0 means one query for the whole array.
	batch int
}

var _ sim.Peer = (*Peer)(nil)

// New constructs a naive peer that fetches the whole array in one query.
func New(sim.PeerID) sim.Peer { return &Peer{} }

// NewBatched returns a factory whose peers fetch the array in query
// batches of the given size.
func NewBatched(batch int) func(sim.PeerID) sim.Peer {
	return func(sim.PeerID) sim.Peer { return &Peer{batch: batch} }
}

// Init implements sim.Peer.
func (p *Peer) Init(ctx sim.Context) {
	p.ctx = ctx
	L := ctx.L()
	p.track = bitarray.NewTracker(L)
	batch := p.batch
	if batch <= 0 {
		batch = L
	}
	for start := 0; start < L; start += batch {
		end := start + batch
		if end > L {
			end = L
		}
		indices := make([]int, 0, end-start)
		for i := start; i < end; i++ {
			indices = append(indices, i)
		}
		ctx.Query(0, indices)
	}
}

// OnMessage implements sim.Peer: naive peers ignore all traffic.
func (p *Peer) OnMessage(sim.PeerID, sim.Message) {}

// OnQueryReply implements sim.Peer.
func (p *Peer) OnQueryReply(r sim.QueryReply) {
	p.track.LearnIndexedFromSource(r.Indices, r.Bits)
	if p.track.Complete() {
		out, err := p.track.Output()
		if err != nil {
			panic("naive: complete tracker failed to output: " + err.Error())
		}
		p.ctx.Output(out)
		p.ctx.Terminate()
	}
}
