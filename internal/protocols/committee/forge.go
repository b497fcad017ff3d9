package committee

import (
	"math/rand"

	"repro/internal/adversary"
	"repro/internal/sim"
)

// Forge implements adversary.Forgeable: it returns a deep copy of the
// Report with one to three value bits flipped. Indices are preserved, so
// the forgery passes every well-formedness check in OnMessage (sorted,
// in-range, committee-member indices) and casts real — wrong — votes.
func (m *Report) Forge(r *rand.Rand) sim.Message {
	out := &Report{
		Indices: append([]int(nil), m.Indices...),
		Bits:    m.Bits.Clone(),
		IdxBits: m.IdxBits,
	}
	if len(out.Indices) == 0 || out.Bits.Len() == 0 {
		return out
	}
	flips := 1 + r.Intn(3)
	for i := 0; i < flips; i++ {
		k := r.Intn(len(out.Indices))
		out.Bits.Set(k, !out.Bits.Get(k))
	}
	return out
}

var _ adversary.Forgeable = (*Report)(nil)

// NewWeak constructs a peer whose acceptance threshold is t instead of
// t+1 — one vote short of the Theorem 3.4 safety requirement, so t
// colluding Byzantine members can push a wrong bit past acceptance.
//
// TEST HOOK ONLY: it exists so the Byzantine strategy search
// (internal/dst) can prove it detects real safety violations; nothing in
// the production protocols uses it.
func NewWeak(sim.PeerID) sim.Peer { return &Peer{weakAccept: true} }
