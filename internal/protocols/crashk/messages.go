package crashk

import (
	"math/bits"

	"repro/internal/bitarray"
	"repro/internal/intset"
	"repro/internal/sim"
)

// Wire messages of Algorithm 2. Sizes are accounted semantically: index
// sets cost two index-words per coalesced range, bit values cost one bit
// each, and every message carries a 64-bit header (type + phase).

const headerBits = 64

// indexBits returns the width of one index word for input length L.
func indexBits(L int) int {
	if L <= 1 {
		return 1
	}
	return bits.Len(uint(L - 1))
}

// Req1 is the stage-1 request: "send me the values of these bits" — the
// requester's still-unknown bits that phase `Phase`'s assignment places at
// the recipient. The recipient answers once it has finished its own
// stage-1 queries for that phase (Corollary 2.7 guarantees it then knows
// every requested bit).
type Req1 struct {
	Phase   int
	Indices intset.Set
	IdxBits int
}

var _ sim.Message = (*Req1)(nil)

// SizeBits implements sim.Message.
func (m *Req1) SizeBits() int { return headerBits + m.Indices.SizeBits(m.IdxBits) }

// Resp1 answers a Req1 with the values of the requested bits, in the index
// set's iteration order.
type Resp1 struct {
	Phase   int
	Indices intset.Set
	Values  *bitarray.Array
	IdxBits int
}

var _ sim.Message = (*Resp1)(nil)

// SizeBits implements sim.Message.
func (m *Resp1) SizeBits() int {
	return headerBits + m.Indices.SizeBits(m.IdxBits) + m.Values.Len()
}

// Req2Item asks about one silent peer Q: "did you hear Q in this phase?
// If so, send me the values of these bits." The sender holds the set in
// memory; a decoded request holds it as its validated encoding, which the
// recipient unpacks only for an item it answers.
type Req2Item struct {
	Q       sim.PeerID
	Indices intset.Lazy
}

// Req2 is the stage-2 request listing every peer the sender failed to hear
// from in stage 1 of the phase, with the bits it still needs from each.
// The recipient answers once it reaches stage 3 of the same phase. Items
// name their peers in increasing order and within [0, N); a request that
// does not is malformed and gets no answer.
type Req2 struct {
	Phase   int
	Items   []Req2Item
	IdxBits int
}

var _ sim.Message = (*Req2)(nil)

// SizeBits implements sim.Message.
func (m *Req2) SizeBits() int {
	s := headerBits
	for _, it := range m.Items {
		s += m.IdxBits + it.Indices.SizeBits(m.IdxBits)
	}
	return s
}

// Resp2Item supplies the requested values of one silent peer Q's bits.
type Resp2Item struct {
	Q       sim.PeerID
	Indices intset.Set
	Values  *bitarray.Array
}

// Resp2 answers a Req2: Items for the peers whose bits the responder can
// supply, MeNeither for the others (it did not hear them either). Both
// ascend in Q, and together they name exactly the request's peers.
type Resp2 struct {
	Phase     int
	Items     []Resp2Item
	MeNeither intset.Set
	IdxBits   int
}

var _ sim.Message = (*Resp2)(nil)

// SizeBits implements sim.Message: a peer word and a flag bit per named
// peer, and the index set and values of every supplied item.
func (m *Resp2) SizeBits() int {
	s := headerBits + (m.IdxBits+1)*(len(m.Items)+m.MeNeither.Len())
	for _, it := range m.Items {
		s += it.Indices.SizeBits(m.IdxBits) + it.Values.Len()
	}
	return s
}

// Full carries the complete input array; every peer broadcasts one just
// before terminating, which is what makes one termination propagate to all
// (Claim 2).
type Full struct {
	Values *bitarray.Array
}

var _ sim.Message = (*Full)(nil)

// SizeBits implements sim.Message.
func (m *Full) SizeBits() int { return headerBits + m.Values.Len() }
