package harden

import (
	"repro/internal/bitarray"
	"repro/internal/merkle"
	"repro/internal/sim"
)

// runMerkleAudit audits each honest terminated output against the
// source's Merkle commitment instead of k random spot-checks. The peer
// builds the commitment tree over its *own* output locally (free — no
// source bits), fetches the authoritative root (merkle.RootBits charged
// into Q), and compares:
//
//   - Roots match: the entire output is verified in one fetch — every
//     bit joins its verified bits, so a clean attempt's audit costs a
//     constant 256 bits instead of k, yet covers all L bits.
//   - Roots differ: a logarithmic descent localizes a wrong bit. At
//     each level the peer fetches the source hashes of the current
//     node's children (≤ 2 × merkle.RootBits per level) and follows the
//     first disagreeing child; at the leaf it fetches the leaf's bits
//     and reports the first differing index. Total cost is
//     RootBits + O(log N)·2·RootBits + LeafBits — exponentially cheaper
//     than re-downloading, and it still yields a *confirmed* mismatch
//     (the fetched leaf bits are source truth and join them).
//
// Unlike the sampling audit, a forged output can never slip through:
// any single wrong bit flips the root. The probabilistic escape window
// (1−ρ)^k of runAudit closes completely.
func runMerkleAudit(res *sim.Result, src *merkle.Tree, input *bitarray.Array, verified []*bitarray.Tracker) *AuditReport {
	rep := &AuditReport{PerPeerBits: make([]int, len(res.PerPeer))}
	p := src.Params()
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
		if st.Output.Len() != p.TotalBits {
			// A wrong-length output cannot even be committed under the
			// source's params; the root fetch alone exposes it. Report the
			// first index where exactly one side has a bit.
			idx := st.Output.Len()
			if idx > p.TotalBits {
				idx = p.TotalBits
			}
			rep.PerPeerBits[i] += merkle.RootBits
			rep.Bits += merkle.RootBits
			rep.Mismatches = append(rep.Mismatches, AuditMismatch{Peer: st.ID, Index: idx})
			continue
		}

		local := merkle.Build(st.Output, p.LeafBits)
		bits := merkle.RootBits // the authoritative root fetch
		if local.Root() == src.Root() {
			// One fetch verified the whole output: every bit is now source
			// truth.
			for idx := 0; idx < p.TotalBits; idx++ {
				verified[i].LearnFromSource(idx, st.Output.Get(idx))
			}
			rep.PerPeerBits[i] += bits
			rep.Bits += bits
			continue
		}

		// Descend from the root toward the first differing leaf, fetching
		// the source's child hashes at every level.
		idx := 0
		for lvl := src.Levels() - 2; lvl >= 0; lvl-- {
			left := 2 * idx
			width := src.LevelWidth(lvl)
			if left+1 >= width {
				// Odd promotion: the sole child carries the parent's hash,
				// so the disagreement is in it and the fetch is free (the
				// parent hash was already paid for one level up).
				idx = left
				continue
			}
			bits += 2 * merkle.RootBits
			if local.Node(lvl, left) != src.Node(lvl, left) {
				idx = left
			} else {
				idx = left + 1
			}
		}

		// Fetch the differing leaf's bits from the source; the first
		// disagreeing index is the confirmed mismatch. (The leaf hashes
		// differ under identical index and width, so the bits must.)
		base := idx * p.LeafBits
		w := p.LeafWidth(idx)
		bits += w
		mismatchAt := -1
		for k := 0; k < w; k++ {
			truth := input.Get(base + k)
			verified[i].LearnFromSource(base+k, truth)
			if mismatchAt < 0 && st.Output.Get(base+k) != truth {
				mismatchAt = base + k
			}
		}
		if mismatchAt < 0 {
			mismatchAt = base // unreachable: differing leaf hashes force a bit
		}
		rep.Mismatches = append(rep.Mismatches, AuditMismatch{Peer: st.ID, Index: mismatchAt})
		rep.PerPeerBits[i] += bits
		rep.Bits += bits
	}
	return rep
}
