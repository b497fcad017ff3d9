package harden

import (
	"math/rand"

	"repro/internal/bitarray"
	"repro/internal/sim"
)

// AuditMismatch is one confirmed wrong output bit: the peer's output
// disagrees with the source at Index. Index is -1 when the peer
// terminated claiming completion but produced no output at all.
type AuditMismatch struct {
	Peer  sim.PeerID
	Index int
}

// AuditReport summarizes one attempt's budgeted source audit.
type AuditReport struct {
	// Peers is the number of outputs audited.
	Peers int
	// Bits is the total number of audit bits charged across peers.
	Bits int
	// PerPeerBits is the audit charge per peer ID.
	PerPeerBits []int
	// Mismatches lists every confirmed disagreement with the source.
	Mismatches []AuditMismatch
}

// runAudit spot-checks each honest terminated output on up to k
// seeded-random indices against the source. Modeling note: this is a
// *self*-audit — each honest peer checks its own output by querying the
// source, so the k bits are charged to that peer's Q and the audited
// values join its verified bits. Byzantine peers would lie about (or
// skip) their audit, so their outputs are neither audited nor trusted;
// the honesty flag stands in for "peers that actually run the audit".
// k ≥ L degenerates to a full comparison (small-instance tests use it).
func runAudit(res *sim.Result, input *bitarray.Array, k int, seed int64, verified []*bitarray.Tracker) *AuditReport {
	rep := &AuditReport{PerPeerBits: make([]int, len(res.PerPeer))}
	L := input.Len()
	if k > L {
		k = L
	}
	for i := range res.PerPeer {
		st := &res.PerPeer[i]
		if !st.Honest || !st.Terminated {
			continue
		}
		rep.Peers++
		if st.Output == nil {
			rep.Mismatches = append(rep.Mismatches, AuditMismatch{Peer: st.ID, Index: -1})
			continue
		}
		idxs := auditIndices(seed, st.ID, L, k)
		rep.PerPeerBits[i] = len(idxs)
		rep.Bits += len(idxs)
		for _, idx := range idxs {
			truth := input.Get(idx)
			verified[i].LearnFromSource(idx, truth)
			if idx >= st.Output.Len() || st.Output.Get(idx) != truth {
				rep.Mismatches = append(rep.Mismatches, AuditMismatch{Peer: st.ID, Index: idx})
			}
		}
	}
	return rep
}

// auditIndices picks k distinct indices in [0, L), seeded per peer so
// colluding forgers cannot aim all peers' spot-checks at the same safe
// spots.
func auditIndices(seed int64, peer sim.PeerID, L, k int) []int {
	rng := rand.New(rand.NewSource(seed ^ (int64(peer)+1)*0x9e3779b97f4a7c))
	if k >= L {
		out := make([]int, L)
		for i := range out {
			out[i] = i
		}
		return out
	}
	if k*4 >= L {
		return rng.Perm(L)[:k]
	}
	seen := make(map[int]bool, k)
	out := make([]int, 0, k)
	for len(out) < k {
		idx := rng.Intn(L)
		if !seen[idx] {
			seen[idx] = true
			out = append(out, idx)
		}
	}
	return out
}
