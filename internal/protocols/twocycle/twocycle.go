// Package twocycle implements the 2-cycle randomized asynchronous
// Byzantine Download protocol (Protocol 4 / Theorem 3.7), for β < 1/2.
//
// It is segproto's engine on the partition schedule [m, 1].
//
// Cycle 1: the input is partitioned into m segments. Each peer picks one
// uniformly at random, queries it in full, and broadcasts ⟨segment, value⟩.
//
// Cycle 2: the one segment is the whole input, and its children are all m
// cycle-1 segments. After hearing segment values from n−t−1 distinct
// other peers (waiting for more risks deadlock; up to t of those heard may
// be Byzantine, which is why the analysis only counts the guaranteed
// gap = n−2t honest ones), the peer processes every segment it did not
// query: the strings reported at least k times form the candidate set, a
// decision tree (package dtree) is built over them, and one batch of
// source queries at the trees' separating indices eliminates every forged
// version — the source is trusted, so a lie can survive only by agreeing
// with X everywhere the tree looks, and the tree looks exactly where
// versions disagree. With high probability every segment's candidate set
// contains the true string (Claim 5), so the peer reconstructs X exactly.
//
// Per-peer cost: L/m bits for the initial segment, plus at most one bit
// per received string across all trees (each sender contributes one
// string), plus full direct queries for any segment whose candidate set
// came up empty (a low-probability event the protocol survives by paying
// queries rather than failing). Segments whose candidate set is non-empty
// but misses the truth make the output wrong — with probability bounded
// by the Chernoff/union argument in package segproto; the protocol is
// correct w.h.p., exactly as in the paper.
package twocycle

import (
	"repro/internal/protocols/segproto"
	"repro/internal/sim"
)

// Options tune the protocol.
type Options struct {
	// ForceSegments overrides the derived segment count (for ablations).
	ForceSegments int
	// ForceThreshold overrides the derived frequency threshold k.
	ForceThreshold int
}

// New constructs a peer with default options.
func New(id sim.PeerID) sim.Peer { return NewWithOptions(Options{})(id) }

// NewWithOptions returns a peer factory with explicit options.
func NewWithOptions(opts Options) func(sim.PeerID) sim.Peer {
	plan := func(p segproto.Params, L int) []int {
		if opts.ForceSegments > 1 && opts.ForceSegments <= L {
			p.Segments, p.Naive = opts.ForceSegments, false
		}
		return p.Schedule(false)
	}
	return func(sim.PeerID) sim.Peer { return segproto.NewPeer(plan, opts.ForceThreshold) }
}

// NewWeak constructs a peer whose candidate-frequency threshold is forced
// to 1: a single forged segment string enters every candidate set, so the
// decision-tree determination step is the only remaining defense and the
// protocol leans entirely on its source queries.
//
// TEST HOOK ONLY: used by the Byzantine strategy search (internal/dst) to
// validate that weakened acceptance rules are detected as violations or,
// when the determination step still saves the run, that the search
// reports the survival honestly. Production code must use New.
func NewWeak(id sim.PeerID) sim.Peer {
	return NewWithOptions(Options{ForceThreshold: 1})(id)
}
