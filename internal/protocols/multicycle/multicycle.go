// Package multicycle implements the O(log n·log L)-cycle randomized
// asynchronous Byzantine Download protocol (Theorem 3.12), for β < 1/2.
//
// It is segproto's engine on the dyadic partition schedule
// [m₁, m₁/2, …, 2, 1], m₁ rounded down to a power of two.
//
// Cycle 1 is exactly the first cycle of the 2-cycle protocol: partition
// the input into m₁ segments, pick one uniformly at random, query it,
// broadcast its value. In every later cycle i the segment size doubles
// (m_i = m₁/2^{i−1}): each peer picks an i-segment uniformly at random,
// reconstructs its two component (i−1)-segments by building decision
// trees over the strings received at least k_{i−1} times in cycle i−1,
// queries the trees' separating indices to eliminate forged versions,
// broadcasts the assembled i-segment value, and waits for n−t−1 cycle-i
// broadcasts before advancing. After D = log₂(m₁)+1 cycles a peer's
// segment is the whole input, so it outputs and terminates.
//
// The per-cycle determination cost is at most one source bit per received
// string (each sender contributes one string per cycle), so the expected
// query complexity is L/m₁ for cycle 1 plus Õ(n/k) per cycle — the
// paper's expected-cost improvement over re-querying from scratch.
// Correctness is w.h.p. by induction over cycles (Lemmas 3.8/3.10):
// every (i−1)-segment was picked by at least k honest peers who had
// themselves reconstructed it correctly.
package multicycle

import (
	"repro/internal/protocols/segproto"
	"repro/internal/sim"
)

// Options tune the protocol.
type Options struct {
	// ForceSegments overrides the derived cycle-1 segment count; it is
	// rounded down to a power of two.
	ForceSegments int
	// ForceThreshold overrides the derived per-cycle frequency threshold
	// (for ablations and the NewWeak test hook).
	ForceThreshold int
}

// New constructs a peer with default options.
func New(id sim.PeerID) sim.Peer { return NewWithOptions(Options{})(id) }

// NewWithOptions returns a peer factory with explicit options.
func NewWithOptions(opts Options) func(sim.PeerID) sim.Peer {
	plan := func(p segproto.Params, _ int) []int {
		if opts.ForceSegments > 1 {
			p.Segments, p.Naive = opts.ForceSegments, false
		}
		return p.Schedule(true)
	}
	return func(sim.PeerID) sim.Peer { return segproto.NewPeer(plan, opts.ForceThreshold) }
}

// NewWeak constructs a peer whose per-cycle frequency threshold is forced
// to 1, letting a single forged segment string enter every cycle's
// candidate set.
//
// TEST HOOK ONLY: used by the Byzantine strategy search (internal/dst) to
// prove the search detects violations when acceptance rules are weakened.
// Production code must use New.
func NewWeak(id sim.PeerID) sim.Peer {
	return NewWithOptions(Options{ForceThreshold: 1})(id)
}
