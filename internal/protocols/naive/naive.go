// Package naive implements the trivial Download protocol: every peer
// queries the entire input array directly and never communicates.
//
// Its query complexity Q = L is prohibitive, but it is the benchmark
// baseline and — by Theorems 3.1 and 3.2 of the paper — essentially the
// only correct deterministic protocol once the Byzantine fraction reaches
// one half: it tolerates any number of faults of any kind.
//
// The protocol is written against the state-machine API (sim.Machine):
// one Step per event, effects emitted as actions. New wraps it in
// sim.AsPeer, so runtimes and tests see the classic sim.Peer surface.
package naive

import (
	"repro/internal/bitarray"
	"repro/internal/sim"
)

// Peer queries every bit of X and terminates. It works under any fault
// model and any β < 1 because it trusts only the source.
type Peer struct {
	track *bitarray.Tracker
	// batch bounds the indices per query call, exercising multi-reply
	// assembly; 0 means one query for the whole array.
	batch int
}

var _ sim.Machine = (*Peer)(nil)

// New constructs a naive peer that fetches the whole array in one query.
func New(sim.PeerID) sim.Peer { return sim.AsPeer(&Peer{}) }

// NewBatched returns a factory whose peers fetch the array in query
// batches of the given size.
func NewBatched(batch int) func(sim.PeerID) sim.Peer {
	return func(sim.PeerID) sim.Peer { return sim.AsPeer(&Peer{batch: batch}) }
}

// Step implements sim.Machine.
func (p *Peer) Step(env *sim.Env, ev sim.Event, em *sim.Emitter) {
	switch ev.Kind {
	case sim.EvInit:
		p.init(env, em)
	case sim.EvQueryReply:
		p.onQueryReply(ev.Reply, em)
	}
	// EvMessage: naive peers ignore all traffic.
}

func (p *Peer) init(env *sim.Env, em *sim.Emitter) {
	p.track = bitarray.NewTracker(env.L)
	batch := p.batch
	if batch <= 0 {
		batch = env.L
	}
	for start := 0; start < env.L; start += batch {
		end := start + batch
		if end > env.L {
			end = env.L
		}
		indices := make([]int, 0, end-start)
		for i := start; i < end; i++ {
			indices = append(indices, i)
		}
		em.Query(0, indices)
	}
}

func (p *Peer) onQueryReply(r sim.QueryReply, em *sim.Emitter) {
	p.track.LearnIndexedFromSource(r.Indices, r.Bits)
	if p.track.Complete() {
		out, err := p.track.Output()
		if err != nil {
			panic("naive: complete tracker failed to output: " + err.Error())
		}
		em.Output(out)
		em.Terminate()
	}
}
