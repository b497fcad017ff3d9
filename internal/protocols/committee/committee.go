// Package committee implements the deterministic asynchronous Byzantine
// Download protocol of Theorem 3.4, for fault fractions β < 1/2.
//
// For every input index i a committee of s = 2t+1 peers is responsible for
// it, chosen in round-robin order so each peer sits on at most ⌈Ls/n⌉
// committees. Every committee member queries its bit and broadcasts the
// value; a peer accepts value v for bit i once t+1 committee members
// reported v identically. Safety: at most t members are Byzantine, so a
// wrong value can never gather t+1 identical reports. Liveness: each
// committee contains at least t+1 honest members whose (possibly delayed,
// never forged) reports eventually arrive. The resulting query complexity
// is Q = ⌈L(2t+1)/n⌉ ≈ 2βL — the deterministic optimum regime, since for
// β ≥ 1/2 Theorem 3.1 forces Q = L.
//
// Peers whose configuration violates 2t+1 ≤ n (i.e., β ≥ 1/2) fall back to
// querying the entire array: the only deterministic option in that regime.
//
// A report is read as words, not as indices. The per-index rules — one
// report per sender, strictly increasing indices inside a report, indices
// inside the array, membership of the sender on the index's committee —
// are the scatter's (tally.scatter): it turns a report into its ballot,
// the list of 64-index words it votes in, and that list is what is counted.
// A ballot depends on the report and on (sender, L, n, s) only, so it is
// kept on the Report under that key: where one *Report reaches many
// recipients in one process (des, live) it is scattered at the first
// delivery and read at the others.
//
// The protocol is written against the state-machine API (sim.Machine);
// New wraps it in sim.AsPeer for the classic sim.Peer surface.
package committee

import (
	"math/bits"
	"sync/atomic"

	"repro/internal/bitarray"
	"repro/internal/sim"
)

const headerBits = 64

func indexBits(L int) int {
	if L <= 1 {
		return 1
	}
	return bits.Len(uint(L - 1))
}

// Report carries a committee member's queried bits: Bits.Get(k) is the
// value of index Indices[k]. One Report per peer covers all of its
// committee assignments.
//
// A Report is frozen once it is sent (sim.Message): des and live hand the
// same *Report to every recipient. ballot is the one thing written after
// that — the report's votes as words, built by whichever recipient counts
// it first (tally.count) and stored with the key it was built under. It
// is atomic because recipients may run on different goroutines (live;
// TestSharedReportRace and internal/live's TestCommitteeLiveWithLiars
// race it); two that race build equal ballots and either store stands.
// Holding it makes a Report uncopyable by value.
type Report struct {
	Indices []int
	Bits    *bitarray.Array
	IdxBits int

	ballot atomic.Pointer[ballot]
}

var _ sim.Message = (*Report)(nil)
var _ sim.Claimer = (*Report)(nil)

// SizeBits implements sim.Message.
func (m *Report) SizeBits() int {
	return headerBits + len(m.Indices)*(m.IdxBits+1)
}

// Claims implements sim.Claimer: one claim per reported index, carrying
// the claimed bit value directly. A sender reporting both values for one
// index — across any of its Reports — is equivocating.
func (m *Report) Claims(dst []sim.Claim) []sim.Claim {
	if m.Bits == nil {
		return dst
	}
	for k, idx := range m.Indices {
		if k >= m.Bits.Len() {
			break
		}
		v := uint64(0)
		if m.Bits.Get(k) {
			v = 1
		}
		dst = append(dst, sim.Claim{Domain: "bit", Key: int64(idx), Value: v})
	}
	return dst
}

// CommitteeSize returns s = 2t+1.
func CommitteeSize(t int) int { return 2*t + 1 }

// InCommittee reports whether peer p belongs to the committee of index i,
// under the round-robin schedule C_i = {(i·s + j) mod n : 0 ≤ j < s}.
func InCommittee(p sim.PeerID, i, n, t int) bool {
	s := CommitteeSize(t)
	return s >= n || mod(int(p)-i*s, n) < s
}

// Assignments returns the indices peer p must query, in increasing order.
func Assignments(p sim.PeerID, L, n, t int) []int {
	s := min(CommitteeSize(t), n)
	// p is a member while its offset (see follow) is below s. One walk
	// counts, the other fills.
	count := 0
	for i, d := 0, mod(int(p), n); i < L; i, d = i+1, follow(d, 1, s, n) {
		if d < s {
			count++
		}
	}
	out := make([]int, 0, count)
	for i, d := 0, mod(int(p), n); i < L; i, d = i+1, follow(d, 1, s, n) {
		if d < s {
			out = append(out, i)
		}
	}
	return out
}

// Peer is one protocol instance.
type Peer struct {
	idxBits int
	track   *bitarray.Tracker
	// votes counts, per index and reported value, the distinct committee
	// members that reported it, and learns a bit at the threshold.
	votes *tally
	// seenReport deduplicates senders wholesale: honest members send
	// exactly one Report, so only the first Report per sender counts.
	// This is what keeps vote processing allocation-free — a per-index
	// sender set would cost a map per input bit.
	seenReport map[sim.PeerID]bool
	naive      bool
	// reported is set once this peer's own committee Report went out. A
	// peer must never terminate before reporting: its votes may be the
	// ones other peers need to reach the t+1 acceptance threshold, and a
	// terminated peer sends nothing.
	reported bool
	done     bool
	// weakAccept lowers the acceptance threshold to t (see NewWeak — a
	// deliberately unsafe test hook for the strategy search).
	weakAccept bool
}

var _ sim.Machine = (*Peer)(nil)

// New constructs a committee-protocol peer.
func New(sim.PeerID) sim.Peer { return sim.AsPeer(&Peer{}) }

// Step implements sim.Machine.
func (p *Peer) Step(env *sim.Env, ev sim.Event, em *sim.Emitter) {
	switch ev.Kind {
	case sim.EvInit:
		p.init(env, em)
	case sim.EvMessage:
		p.onMessage(ev.From, ev.Msg, em)
	case sim.EvQueryReply:
		p.onQueryReply(ev.Reply, em)
	}
}

func (p *Peer) init(env *sim.Env, em *sim.Emitter) {
	p.idxBits = indexBits(env.L)
	p.track = bitarray.NewTracker(env.L)
	accept := env.T + 1
	if p.weakAccept && env.T >= 1 {
		accept = env.T
	}
	em.MarkPhase("elect")
	if CommitteeSize(env.T) > env.N {
		// β ≥ 1/2: deterministic protocols cannot beat naive (Thm 3.1).
		p.naive = true
		all := make([]int, env.L)
		for i := range all {
			all[i] = i
		}
		em.MarkPhase("download")
		em.Query(0, all)
		return
	}
	p.votes = newTally(env.L, env.N, CommitteeSize(env.T), accept, p.track)
	p.seenReport = make(map[sim.PeerID]bool, env.N)
	mine := Assignments(env.ID, env.L, env.N, env.T)
	if len(mine) == 0 {
		p.reported = true // nothing to report
		return
	}
	em.MarkPhase("download")
	em.Query(0, mine)
}

func (p *Peer) onQueryReply(r sim.QueryReply, em *sim.Emitter) {
	if p.done {
		return
	}
	p.track.LearnIndexedFromSource(r.Indices, r.Bits)
	if p.naive {
		p.maybeFinish(em)
		return
	}
	// Broadcast my committee report: the reply's values, which are what
	// the tracker now holds for these (distinct) indices. The reply's list
	// is this peer's own from delivery on (sim.QueryReply) and is not
	// written again, so the Report takes it as it is.
	em.Broadcast(&Report{Indices: r.Indices, Bits: r.Bits.Slice(0, len(r.Indices)), IdxBits: p.idxBits})
	p.reported = true
	em.MarkPhase("verify")
	p.maybeFinish(em)
}

func (p *Peer) onMessage(from sim.PeerID, m sim.Message, em *sim.Emitter) {
	if p.done || p.naive {
		return
	}
	rep, ok := m.(*Report)
	if !ok {
		return
	}
	if rep.Bits == nil || rep.Bits.Len() < len(rep.Indices) {
		return // malformed (Byzantine)
	}
	if p.seenReport[from] {
		return // one report per member; Byzantine repeats are dropped
	}
	p.seenReport[from] = true
	p.votes.count(from, rep)
	p.maybeFinish(em)
}

func (p *Peer) maybeFinish(em *sim.Emitter) {
	if p.done || !p.track.Complete() {
		return
	}
	if !p.naive && !p.reported {
		return
	}
	out, err := p.track.Output()
	if err != nil {
		panic("committee: complete tracker failed to output: " + err.Error())
	}
	em.Output(out)
	p.done = true
	em.Terminate()
}
