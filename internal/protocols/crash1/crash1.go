// Package crash1 implements Algorithm 1 of the paper (Theorem 2.3): a
// deterministic asynchronous Download protocol tolerating a single crash
// fault, with Q = O(L/n). It is the pedagogical two-phase special case of
// Algorithm 2 (package crashk) and is kept faithful to the paper's
// push-based structure:
//
// Phase 1 (three stages):
//
//	Stage 1: query my block of the balanced partition and push it to all.
//	Stage 2: wait for pushes from at least n−1 peers (counting myself;
//	         waiting for the last one risks deadlock). Announce my single
//	         "missing" peer q and ask everyone about q's block.
//	Stage 3: collect n−1 opinions about q (counting my own "me neither").
//	         If someone supplies q's block, I know everything and enter
//	         completion mode. If everyone says "me neither", the Overlap
//	         Lemma guarantees every still-lacking peer misses the SAME q
//	         (Lemma 2.1), so all of them deterministically re-spread q's
//	         block over the other n−1 peers and enter phase 2.
//
// Phase 2: completion-mode peers push the full array; others query their
// share of the re-spread block and push it. Since at most one peer ever
// crashes, either q itself is alive (its phase-1 push eventually arrives)
// or all n−1 others are alive (their shares cover q's block), so waiting
// until no bit is unknown is deadlock-free. Every peer then outputs and
// terminates.
package crash1

import (
	"math/bits"
	"sort"

	"repro/internal/bitarray"
	"repro/internal/intset"
	"repro/internal/sim"
)

const headerBits = 64

func indexBits(L int) int {
	if L <= 1 {
		return 1
	}
	return bits.Len(uint(L - 1))
}

// Push is the stage-1 message of either phase: index set plus values.
// Completion-mode peers push the entire array as their phase-2 Push.
type Push struct {
	Phase   int
	Indices intset.Set
	Values  *bitarray.Array
	IdxBits int
}

var _ sim.Message = (*Push)(nil)

// SizeBits implements sim.Message.
func (m *Push) SizeBits() int {
	return headerBits + m.Indices.SizeBits(m.IdxBits) + m.Values.Len()
}

// WhoIsMissing is the stage-2 message: "I did not hear Missing; did you?".
type WhoIsMissing struct {
	Phase   int
	Missing sim.PeerID
}

var _ sim.Message = (*WhoIsMissing)(nil)

// SizeBits implements sim.Message.
func (m *WhoIsMissing) SizeBits() int { return headerBits }

// MissingReply answers WhoIsMissing: either the block of the missing peer
// or "me neither".
type MissingReply struct {
	Phase     int
	About     sim.PeerID
	MeNeither bool
	Indices   intset.Set
	Values    *bitarray.Array
	IdxBits   int
}

var _ sim.Message = (*MissingReply)(nil)

// SizeBits implements sim.Message.
func (m *MissingReply) SizeBits() int {
	s := headerBits + 1
	if !m.MeNeither {
		s += m.Indices.SizeBits(m.IdxBits) + m.Values.Len()
	}
	return s
}

const (
	stP1Query = 1 // querying my block
	stP1Wait1 = 2 // waiting for n−1 phase-1 pushes
	stP1Wait2 = 3 // waiting for n−1 opinions about my missing peer
	stP2Query = 4 // querying my share of the re-spread block
	stP2Wait  = 5 // waiting to know everything
	stDone    = 6
)

// Peer is one Algorithm 1 instance.
type Peer struct {
	ctx     sim.Context
	track   *bitarray.Tracker
	stage   int
	idxBits int

	heard1  map[sim.PeerID]bool // phase-1 pushes received
	missing sim.PeerID

	opinions   int // MissingReply messages about my missing peer
	gotValues  bool
	completion bool

	// legacy reinstates the pre-fix silent termination (see finish and
	// NewLegacy — a test hook for the deterministic-simulation harness).
	legacy bool

	deferredWho []deferredWho
}

type deferredWho struct {
	from sim.PeerID
	req  *WhoIsMissing
}

var _ sim.Peer = (*Peer)(nil)

// New constructs an Algorithm 1 peer.
func New(sim.PeerID) sim.Peer { return &Peer{} }

// NewLegacy constructs a peer with the PRE-FIX termination behavior:
// finish() terminates silently instead of broadcasting the full array.
// This resurrects the three-way termination deadlock the schedule fuzzer
// found at n = 4 (see finish below and deadlock_regression_test.go).
//
// TEST HOOK ONLY: it exists so the deterministic-simulation harness
// (internal/dst) has a real, historically observed bug to find, shrink,
// and pin as a replay regression. Production code must use New.
func NewLegacy(sim.PeerID) sim.Peer { return &Peer{legacy: true} }

// Init implements sim.Peer.
func (p *Peer) Init(ctx sim.Context) {
	p.ctx = ctx
	L := ctx.L()
	p.track = bitarray.NewTracker(L)
	p.idxBits = indexBits(L)
	p.heard1 = make(map[sim.PeerID]bool)
	p.missing = -1
	p.stage = stP1Query
	ctx.MarkPhase("phase1")
	lo, hi := sim.BlockRange(L, ctx.N(), ctx.ID())
	if lo == hi {
		p.afterP1Query()
		return
	}
	idx := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		idx = append(idx, i)
	}
	ctx.Query(1, idx)
}

func (p *Peer) afterP1Query() {
	p.stage = stP1Wait1
	// Push my block to everyone.
	lo, hi := sim.BlockRange(p.ctx.L(), p.ctx.N(), p.ctx.ID())
	set := intset.FromRange(lo, hi)
	vals, ok := p.track.KnownSegment(lo, hi-lo)
	if !ok {
		panic("crash1: own block unknown after query")
	}
	p.ctx.Broadcast(&Push{Phase: 1, Indices: set, Values: vals, IdxBits: p.idxBits})
	// Answer deferred missing-peer questions now that stage 1 is done.
	for _, d := range p.deferredWho {
		p.answerWho(d.from, d.req)
	}
	p.deferredWho = nil
	p.checkP1Wait1()
}

func (p *Peer) checkP1Wait1() {
	if p.stage != stP1Wait1 {
		return
	}
	// Count myself: n−1 peers total means n−2 pushes from others.
	n, me := p.ctx.N(), p.ctx.ID()
	if len(p.heard1) < n-2 {
		return
	}
	if len(p.heard1) == n-1 || p.track.Complete() {
		// Heard everyone — nothing missing.
		p.enterCompletion()
		return
	}
	// Exactly one peer missing.
	for j := 0; j < n; j++ {
		id := sim.PeerID(j)
		if id != me && !p.heard1[id] {
			p.missing = id
			break
		}
	}
	p.stage = stP1Wait2
	p.opinions = 1 // my own "me neither"
	p.gotValues = false
	p.ctx.Broadcast(&WhoIsMissing{Phase: 1, Missing: p.missing})
	p.checkP1Wait2()
}

func (p *Peer) checkP1Wait2() {
	if p.stage != stP1Wait2 {
		return
	}
	if p.track.Complete() {
		p.enterCompletion()
		return
	}
	if p.opinions < p.ctx.N()-1 {
		return
	}
	if p.gotValues && p.track.Complete() {
		p.enterCompletion()
		return
	}
	// All "me neither": re-spread q's block over the other n−1 peers.
	p.enterPhase2()
}

// spreadShare returns the indices of q's block assigned to peer `who`
// when the block is spread evenly over all peers except q.
func (p *Peer) spreadShare(q, who sim.PeerID) []int {
	n := p.ctx.N()
	lo, hi := sim.BlockRange(p.ctx.L(), n, q)
	others := make([]sim.PeerID, 0, n-1)
	for j := 0; j < n; j++ {
		if sim.PeerID(j) != q {
			others = append(others, sim.PeerID(j))
		}
	}
	var mine []int
	for i := lo; i < hi; i++ {
		rank := i - lo
		if others[rank%len(others)] == who {
			mine = append(mine, i)
		}
	}
	sort.Ints(mine)
	return mine
}

func (p *Peer) enterPhase2() {
	p.ctx.MarkPhase("phase2")
	p.stage = stP2Query
	mine := p.spreadShare(p.missing, p.ctx.ID())
	// Drop already-known bits (none expected, but harmless).
	need := mine[:0]
	for _, x := range mine {
		if !p.track.Known(x) {
			need = append(need, x)
		}
	}
	if len(need) == 0 {
		p.afterP2Query()
		return
	}
	p.ctx.Query(2, need)
}

func (p *Peer) afterP2Query() {
	p.stage = stP2Wait
	mine := p.spreadShare(p.missing, p.ctx.ID())
	if len(mine) > 0 {
		set := intset.FromSorted(mine)
		vals := bitarray.New(len(mine))
		for i, x := range mine {
			v, ok := p.track.Get(x)
			if !ok {
				panic("crash1: phase-2 share unknown after query")
			}
			vals.Set(i, v)
		}
		p.ctx.Broadcast(&Push{Phase: 2, Indices: set, Values: vals, IdxBits: p.idxBits})
	}
	p.checkP2()
}

func (p *Peer) checkP2() {
	if p.stage != stP2Wait {
		return
	}
	if p.track.Complete() {
		p.finish()
	}
}

// enterCompletion marks completion mode and terminates via finish.
func (p *Peer) enterCompletion() {
	p.ctx.MarkPhase("completion")
	p.completion = true
	p.finish()
}

// finish broadcasts the full array and terminates. EVERY termination
// pushes the full array — not just completion mode. A terminated peer
// answers nothing, so a peer that terminates after assembling the input
// from late pushes could otherwise starve a lagging peer's stage-3 wait
// forever (a deadlock the schedule fuzzer found: the crashed peer's
// partial broadcast reaches only part of the network, one peer completes
// via the victim's late push and goes silent, and the remaining peers
// each lack a share only the silent peer could provide). The broadcast is
// Algorithm 2's Claim 2 mechanism: one termination releases everyone.
func (p *Peer) finish() {
	out, err := p.track.Output()
	if err != nil {
		panic("crash1: finish without full knowledge: " + err.Error())
	}
	if !p.legacy {
		p.ctx.Broadcast(&Push{
			Phase:   2,
			Indices: intset.FromRange(0, p.ctx.L()),
			Values:  out,
			IdxBits: p.idxBits,
		})
	}
	p.ctx.Output(out)
	p.stage = stDone
	p.ctx.Terminate()
}

// OnQueryReply implements sim.Peer.
func (p *Peer) OnQueryReply(r sim.QueryReply) {
	for j, idx := range r.Indices {
		p.track.LearnFromSource(idx, r.Bits.Get(j))
	}
	switch p.stage {
	case stP1Query:
		p.afterP1Query()
	case stP2Query:
		p.afterP2Query()
	}
}

// OnMessage implements sim.Peer.
func (p *Peer) OnMessage(from sim.PeerID, m sim.Message) {
	if p.stage == stDone {
		return
	}
	switch msg := m.(type) {
	case *Push:
		if !validPayload(msg.Indices, msg.Values, p.ctx.L()) {
			return // malformed (possible only from faulty senders)
		}
		p.learnSet(msg.Indices, msg.Values)
		if msg.Phase == 1 {
			p.heard1[from] = true
		}
		p.progress()
	case *WhoIsMissing:
		if msg.Missing < 0 || int(msg.Missing) >= p.ctx.N() {
			return // malformed
		}
		// Answer once my own phase-1 stage-1 wait is done.
		if p.stage >= stP1Wait1 {
			p.answerWho(from, msg)
		} else {
			p.deferredWho = append(p.deferredWho, deferredWho{from, msg})
		}
	case *MissingReply:
		if !msg.MeNeither {
			if !validPayload(msg.Indices, msg.Values, p.ctx.L()) {
				return // malformed
			}
			p.learnSet(msg.Indices, msg.Values)
			if msg.About == p.missing {
				p.gotValues = true
			}
		}
		if p.stage == stP1Wait2 && msg.About == p.missing {
			p.opinions++
		}
		p.progress()
	}
}

// progress re-evaluates the current stage's wait condition.
func (p *Peer) progress() {
	switch p.stage {
	case stP1Wait1:
		p.checkP1Wait1()
	case stP1Wait2:
		p.checkP1Wait2()
	case stP2Wait:
		p.checkP2()
	}
}

func (p *Peer) answerWho(from sim.PeerID, req *WhoIsMissing) {
	lo, hi := sim.BlockRange(p.ctx.L(), p.ctx.N(), req.Missing)
	vals, ok := p.track.KnownSegment(lo, hi-lo)
	if !ok {
		p.ctx.Send(from, &MissingReply{Phase: req.Phase, About: req.Missing, MeNeither: true})
		return
	}
	p.ctx.Send(from, &MissingReply{
		Phase:   req.Phase,
		About:   req.Missing,
		Indices: intset.FromRange(lo, hi),
		Values:  vals,
		IdxBits: p.idxBits,
	})
}

// learnSet records values delivered alongside their index set.
func (p *Peer) learnSet(set intset.Set, values *bitarray.Array) {
	i := 0
	set.ForEachRange(func(lo, hi int) {
		p.track.LearnRange(lo, hi, values, i)
		i += hi - lo
	})
}

// validPayload checks an (indices, values) pair is internally consistent
// and in-range; anything else is a forged or corrupted frame to drop.
func validPayload(set intset.Set, values *bitarray.Array, L int) bool {
	if values == nil || values.Len() != set.Len() {
		return false
	}
	ok := true
	set.ForEachRange(func(lo, hi int) {
		if lo < 0 || hi > L {
			ok = false
		}
	})
	return ok
}
