// Package crashk implements the paper's main deterministic result
// (Algorithm 2 / Theorem 2.13): asynchronous Download tolerating up to
// t = βn crash faults for ANY β < 1, with optimal query complexity
// Q = O(L/n) per peer.
//
// The protocol runs in phases of three stages. In phase r each still-
// unknown bit x has a globally agreed owner, owner(r, x): in phase 1 the
// balanced block partition, in later phases a deterministic per-bit hash.
// (The paper reassigns a missing peer's bits "evenly among all peers";
// a global per-bit owner function realizes that reassignment while making
// Claim 1 — any two honest peers agree on the owner of every bit neither
// of them knows — hold by construction.)
//
//	Stage 1: query my own unknown owned bits; ask every other peer for the
//	         values of my unknown bits it owns. A peer answers a stage-1
//	         request once it finished its own stage-1 queries for that
//	         phase, at which point it provably knows every requested bit.
//	Stage 2: wait until stage-1 answers arrived from at least n−t peers
//	         (counting myself) — waiting for all n risks deadlock. Ask all
//	         peers about the silent set F: "did you hear q? send q's bits".
//	Stage 3: wait for n−t stage-2 answers (counting myself), learn any
//	         supplied values, then start phase r+1; bits still unknown are
//	         implicitly reassigned by the phase-(r+1) owner function.
//
// Unknown bits shrink by roughly a factor t/n per phase; once at most
// ~L/n remain, the peer queries them directly, broadcasts the full array
// (so one termination releases everyone — Claim 2), outputs, and stops.
//
// The Fast option implements the Theorem 2.13 refinement: a peer in stage
// 3 advances as soon as the bits it asked about are known, even before
// n−t answers arrive, removing a Θ(n)-factor from the time bound.
package crashk

import (
	"math/bits"

	"repro/internal/bitarray"
	"repro/internal/intset"
	"repro/internal/sim"
)

// Reassign selects the global owner function used to re-spread still-
// unknown bits in phases ≥ 2 — the implementation of the paper's
// "reassigns the bits evenly among all peers" (DESIGN.md reconstruction
// #3; ablated in experiment A6).
type Reassign int

// Reassignment strategies.
const (
	// ReassignHash (default) owns bit x in phase r by a splitmix64-style
	// hash of (x, r): near-even spread of ANY residual set, phase-fresh
	// each round.
	ReassignHash Reassign = iota
	// ReassignRotate owns bit x in phase r by (x + r·stride) mod n. It
	// is perfectly even on contiguous sets but correlated across phases:
	// a residual set concentrated on few owners can stay concentrated,
	// inflating per-peer query load.
	ReassignRotate
)

// Options tune protocol variants; the zero value is the paper's base
// Algorithm 2.
type Options struct {
	// Fast enables the Theorem 2.13 stage-3 early-exit modification.
	Fast bool
	// Threshold overrides the direct-query cutoff (default ceil(L/n)).
	Threshold int
	// MaxPhases bounds the phase count as a safety net; when exceeded the
	// peer queries everything still unknown. Default 64.
	MaxPhases int
	// Reassign selects the phase ≥ 2 owner function.
	Reassign Reassign
}

// New returns a factory for the base protocol.
func New(id sim.PeerID) sim.Peer { return NewWithOptions(Options{})(id) }

// NewFast returns a factory for the Theorem 2.13 fast variant.
func NewFast(id sim.PeerID) sim.Peer { return NewWithOptions(Options{Fast: true})(id) }

// NewWithOptions returns a peer factory with explicit options.
func NewWithOptions(opts Options) func(sim.PeerID) sim.Peer {
	return func(sim.PeerID) sim.Peer { return &Peer{opts: opts} }
}

// owner returns the globally agreed owner of bit x in phase r. Phase 1
// uses the contiguous block partition (so stage-1 request sets compress to
// single ranges); later phases use a splitmix64-style hash, which spreads
// any residual unknown set near-evenly and is the same at every peer, so
// the agreement property of Claim 1 holds by construction.
func owner(strategy Reassign, r, x, L, n int) sim.PeerID {
	if r == 1 {
		return sim.BlockOwner(L, n, x)
	}
	if strategy == ReassignRotate {
		return sim.PeerID((x + r*(n/2+1)) % n)
	}
	z := uint64(x)*0x9E3779B97F4A7C15 + uint64(r)*0xBF58476D1CE4E5B9 + 0x94D049BB133111EB
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return sim.PeerID(z % uint64(n))
}

const (
	stQuery = 1 // stage 1: waiting for own source queries
	stWait1 = 2 // stage 2: waiting for stage-1 responses
	stWait2 = 3 // stage 3: waiting for stage-2 responses
	stFinal = 4 // direct-query completion
	stDone  = 5
)

// Peer is one protocol instance.
type Peer struct {
	ctx  sim.Context
	opts Options

	track *bitarray.Tracker
	phase int
	stage int

	idxBits int

	// queryWait tracks outstanding stage-1 source queries for this phase.
	queryWait int

	// heard marks, by peer, whose Resp1 for the current phase arrived, and
	// heardCount counts them: stage 2 waits for n−t−1 of them and stage 3
	// asks about the rest. Reset at every startPhase; a Resp1 of another
	// phase still teaches its values but is not recorded here.
	heard      []bool
	heardCount int

	// reqs is the current phase's partition of the bits unknown at
	// startPhase, by owner, held as the stage-1 requests themselves: reqs[q]
	// went to q, and reqs[me] names my own queries. A sent request is
	// frozen (MODEL.md, "Ownership of what is delivered"), so nothing writes
	// reqs after startPhase. Known bits only grow, so until the phase ends
	// reqs[q].Indices ∩ still-unknown is exactly what a fresh partition
	// would assign to q; stage 3 narrows a silent q's share that way, into
	// its Req2 item.
	reqs []Req1
	// counts, ends and parts are unknownByOwner's per-owner scratch, sized
	// n at the first phase and reused by every later one.
	counts, ends []int
	parts        [][]intset.Range

	// needs is the per-silent-peer request content of the current phase's
	// Req2, kept to evaluate the Fast early exit.
	needs []Req2Item
	// resp2Count counts stage-2 answers received for the current phase.
	resp2Count int
	// ruled is answerReq2's scratch: its ruling on each item of the request
	// in hand. It carries nothing from one request to the next.
	ruled []bool

	// Deferred requests: stage-1 requests wait for my stage ≥ 2 of their
	// phase; stage-2 requests wait for my stage ≥ 3 of their phase.
	defer1 map[int][]deferred1
	defer2 map[int][]deferred2
}

type deferred1 struct {
	from sim.PeerID
	req  *Req1
}

type deferred2 struct {
	from sim.PeerID
	req  *Req2
}

var _ sim.Peer = (*Peer)(nil)

// Init implements sim.Peer.
func (p *Peer) Init(ctx sim.Context) {
	p.ctx = ctx
	n, L := ctx.N(), ctx.L()
	p.track = bitarray.NewTracker(L)
	p.idxBits = indexBits(L)
	p.heard = make([]bool, n)
	p.defer1 = make(map[int][]deferred1)
	p.defer2 = make(map[int][]deferred2)
	if p.opts.Threshold <= 0 {
		p.opts.Threshold = (L + n - 1) / n
	}
	if p.opts.MaxPhases <= 0 {
		p.opts.MaxPhases = 64
	}
	p.startPhase(1)
}

func (p *Peer) startPhase(r int) {
	if p.stage == stDone {
		return
	}
	if p.track.UnknownCount() <= p.opts.Threshold || r > p.opts.MaxPhases {
		p.finishDirect()
		return
	}
	p.phase = r
	p.stage = stQuery
	p.ctx.MarkPhase(phaseName(r))
	clear(p.heard)
	p.heardCount = 0
	p.needs = nil
	p.resp2Count = 0

	// Partition my unknown bits by this phase's owner, straight into the
	// stage-1 requests. Stage 1: query my own bits, request the rest.
	p.reqs = p.unknownByOwner(r)
	me := p.ctx.ID()
	mine := p.reqs[me].Indices
	p.queryWait = 0
	if !mine.Empty() {
		p.queryWait = 1
		p.ctx.Query(r, mine.Elements())
	}
	for j := range p.reqs {
		if id := sim.PeerID(j); id != me {
			p.ctx.Send(id, &p.reqs[j])
		}
	}
	if p.queryWait == 0 {
		p.enterWait1()
	}
}

// unknownByOwner groups the currently unknown bits by their phase-r owner,
// as the phase's requests: entry o is the Req1 that names owner o's share.
// Two walks over the tracker: the first counts each owner's coalesced
// ranges, so that one backing array of exactly that total can be carved
// into per-owner parts capped at their own count; the second fills them.
// owner() is recomputed in the second walk rather than remembered: a
// per-bit scratch would be the one allocation here that grows with L. The
// per-owner scratch is the peer's, so a phase allocates the backing array
// and the requests and nothing else.
func (p *Peer) unknownByOwner(r int) []Req1 {
	n := p.ctx.N()
	if len(p.counts) != n {
		p.counts, p.ends, p.parts = make([]int, n), make([]int, n), make([][]intset.Range, n)
	}
	counts, parts := p.counts, p.parts
	clear(counts)
	p.walkOwned(r, false)
	total := 0
	for _, c := range counts {
		total += c
	}
	backing := make([]intset.Range, total)
	off := 0
	for i, c := range counts {
		parts[i] = backing[off : off : off+c]
		off += c
	}
	p.walkOwned(r, true)
	reqs := make([]Req1, n)
	for i := range reqs {
		reqs[i] = Req1{Phase: r, Indices: intset.FromRanges(parts[i]), IdxBits: p.idxBits}
	}
	return reqs
}

// walkOwned is one of unknownByOwner's walks: it takes the still-unknown
// bits to their phase-r owners, each owner's in increasing order, and
// either counts each owner's coalesced ranges or, with fill, appends them
// to its part. Phase 1's owner function is the block partition, so each
// block's unknown runs come from the tracker whole, and a block's maximal
// runs never touch. Later phases take the tracker's unknown bits a word at
// a time and hash each one, whichever the Reassign strategy, with no call
// per bit but owner(); a bit right after its owner's last one (ends)
// widens that owner's last range.
func (p *Peer) walkOwned(r int, fill bool) {
	n, L := p.ctx.N(), p.ctx.L()
	counts, ends, parts := p.counts, p.ends, p.parts
	if r == 1 {
		for o := 0; o < n; o++ {
			lo, hi := sim.BlockRange(L, n, sim.PeerID(o))
			if fill {
				p.track.UnknownRuns(lo, hi, func(lo, hi int) {
					parts[o] = append(parts[o], intset.Range{Lo: int32(lo), Hi: int32(hi)})
				})
			} else {
				p.track.UnknownRuns(lo, hi, func(int, int) { counts[o]++ })
			}
		}
		return
	}
	for i := range ends {
		ends[i] = -1 // adjacent to no bit
	}
	for wi, words := 0, p.track.UnknownWords(); wi < words; wi++ {
		for w := p.track.UnknownWord(wi); w != 0; w &= w - 1 {
			x := wi*64 + bits.TrailingZeros64(w)
			o := owner(p.opts.Reassign, r, x, L, n)
			switch {
			case x == ends[o]: // it widens o's last range
				if fill {
					parts[o][len(parts[o])-1].Hi++
				}
			case fill:
				parts[o] = append(parts[o], intset.Range{Lo: int32(x), Hi: int32(x + 1)})
			default:
				counts[o]++
			}
			ends[o] = x + 1
		}
	}
}

// knownRange is Tracker.KnownRange with a one-bit range tested inline:
// from phase 2 on, nearly every range of a partitioned set is one bit. It
// rules on an item held as its encoding.
func (p *Peer) knownRange(lo, hi int) bool {
	if hi == lo+1 {
		return p.track.Known(lo)
	}
	return p.track.KnownRange(lo, hi)
}

// allKnown reports whether every bit of set, which must lie in [0, L), is
// known; it stops at the first range holding an unknown one. A one-bit
// range is one bit test, as in knownRange.
func (p *Peer) allKnown(set intset.Set) bool {
	for _, r := range set.Ranges() {
		if r.Hi == r.Lo+1 {
			if !p.track.Known(int(r.Lo)) {
				return false
			}
		} else if !p.track.KnownRange(int(r.Lo), int(r.Hi)) {
			return false
		}
	}
	return true
}

// anyKnown is allKnown's dual: it stops at the first range holding a
// known bit.
func (p *Peer) anyKnown(set intset.Set) bool {
	for _, r := range set.Ranges() {
		if r.Hi == r.Lo+1 {
			if p.track.Known(int(r.Lo)) {
				return true
			}
		} else if p.track.AnyKnown(int(r.Lo), int(r.Hi)) {
			return true
		}
	}
	return false
}

// stillUnknown returns set minus the bits learned since it was computed:
// the very same Set when none was, a filtered copy otherwise. The set's
// ranges never touch, so neither do the unknown runs of two of them, and
// the runs counted are the copy's ranges; a one-bit range is one run or
// none, by one bit test.
func (p *Peer) stillUnknown(set intset.Set) intset.Set {
	if !p.anyKnown(set) {
		return set
	}
	runs := 0
	count := func(int, int) { runs++ }
	for _, r := range set.Ranges() {
		if r.Hi != r.Lo+1 {
			p.track.UnknownRuns(int(r.Lo), int(r.Hi), count)
		} else if !p.track.Known(int(r.Lo)) {
			runs++
		}
	}
	rs := make([]intset.Range, 0, runs)
	add := func(lo, hi int) { rs = append(rs, intset.Range{Lo: int32(lo), Hi: int32(hi)}) }
	for _, r := range set.Ranges() {
		if r.Hi != r.Lo+1 {
			p.track.UnknownRuns(int(r.Lo), int(r.Hi), add)
		} else if !p.track.Known(int(r.Lo)) {
			rs = append(rs, r)
		}
	}
	return intset.FromRanges(rs)
}

// enterWait1 moves to stage 2: my own queries are done, so I can now
// answer deferred stage-1 requests, and I wait for n−t stage-1 answers.
func (p *Peer) enterWait1() {
	p.stage = stWait1
	r := p.phase
	for _, d := range p.defer1[r] {
		p.answerReq1(d.from, d.req)
	}
	delete(p.defer1, r)
	p.checkWait1()
}

func (p *Peer) checkWait1() {
	if p.stage != stWait1 {
		return
	}
	// Count myself: wait for n−t−1 others.
	if p.heardCount < p.ctx.N()-p.ctx.T()-1 {
		return
	}
	p.enterWait2()
}

// enterWait2 moves to stage 3: broadcast the Req2 about silent peers,
// answer deferred stage-2 requests, and wait for n−t answers.
func (p *Peer) enterWait2() {
	r := p.phase
	p.stage = stWait2

	// Answer deferred stage-2 requests first: even if this peer has
	// nothing missing and skips its own stage-3 wait, others may be
	// blocked on its answer.
	for _, d := range p.defer2[r] {
		p.answerReq2(d.from, d.req)
	}
	delete(p.defer2, r)

	// What a silent peer still owes me is its share of the phase's
	// partition less anything learned since. The share went out as its
	// Req1, so it is narrowed into the Req2 item only: a first pass counts
	// the silent peers that still owe a bit, a second builds their items.
	me := p.ctx.ID()
	missing := 0
	for j := range p.reqs {
		if j != int(me) && !p.heard[j] && !p.allKnown(p.reqs[j].Indices) {
			missing++
		}
	}
	if missing == 0 {
		// Nothing missing: skip the stage-3 wait.
		p.endPhase()
		return
	}
	items := make([]Req2Item, 0, missing)
	for j := range p.reqs {
		if j == int(me) || p.heard[j] {
			continue
		}
		if set := p.stillUnknown(p.reqs[j].Indices); !set.Empty() {
			items = append(items, Req2Item{Q: sim.PeerID(j), Indices: intset.Hold(set)})
		}
	}
	p.needs = items
	p.ctx.Broadcast(&Req2{Phase: r, Items: items, IdxBits: p.idxBits})
	p.checkWait2()
}

func (p *Peer) checkWait2() {
	if p.stage != stWait2 {
		return
	}
	if p.opts.Fast && p.needsSatisfied() {
		p.endPhase()
		return
	}
	if p.resp2Count < p.ctx.N()-p.ctx.T()-1 {
		return
	}
	p.endPhase()
}

// needsSatisfied reports whether every bit this peer asked about in its
// Req2 is now known — the Theorem 2.13 early-exit condition.
func (p *Peer) needsSatisfied() bool {
	for _, it := range p.needs {
		if !p.allKnown(it.Indices.Set()) {
			return false
		}
	}
	return true
}

func (p *Peer) endPhase() {
	if p.stage == stDone || p.stage == stFinal {
		return
	}
	r := p.phase
	p.needs = nil
	p.startPhase(r + 1)
}

// phaseNames covers the phase counts seen in practice (O(log n) phases);
// a static table keeps MarkPhase free of formatting allocations on the
// hot startPhase path even when a timeline is attached.
var phaseNames = [...]string{
	"phase0", "phase1", "phase2", "phase3", "phase4", "phase5", "phase6",
	"phase7", "phase8", "phase9", "phase10", "phase11", "phase12",
	"phase13", "phase14", "phase15",
}

func phaseName(r int) string {
	if r >= 0 && r < len(phaseNames) {
		return phaseNames[r]
	}
	return "phaseN"
}

// finishDirect queries every remaining unknown bit, then terminates.
func (p *Peer) finishDirect() {
	p.ctx.MarkPhase("direct")
	p.stage = stFinal
	unknown := p.track.UnknownAll()
	if len(unknown) == 0 {
		p.complete()
		return
	}
	p.ctx.Query(-1, unknown)
}

// complete broadcasts the full array, outputs, and terminates.
func (p *Peer) complete() {
	out, err := p.track.Output()
	if err != nil {
		panic("crashk: complete() with unknown bits: " + err.Error())
	}
	p.ctx.Broadcast(&Full{Values: out})
	p.ctx.Output(out)
	p.stage = stDone
	p.ctx.Terminate()
}

// OnQueryReply implements sim.Peer.
func (p *Peer) OnQueryReply(r sim.QueryReply) {
	p.track.LearnIndexedFromSource(r.Indices, r.Bits)
	switch p.stage {
	case stQuery:
		if r.Tag == p.phase {
			p.queryWait--
			if p.queryWait <= 0 {
				p.enterWait1()
			}
		}
	case stFinal:
		if p.track.Complete() {
			p.complete()
		}
	}
}

// OnMessage implements sim.Peer.
func (p *Peer) OnMessage(from sim.PeerID, m sim.Message) {
	if p.stage == stDone {
		return
	}
	switch msg := m.(type) {
	case *Req1:
		// Answerable once my stage-1 queries for that phase are done:
		// either I am past that phase, or in it with stage ≥ 2.
		if p.phase > msg.Phase || (p.phase == msg.Phase && p.stage >= stWait1) || p.stage == stFinal {
			p.answerReq1(from, msg)
		} else {
			p.defer1[msg.Phase] = append(p.defer1[msg.Phase], deferred1{from, msg})
		}
	case *Resp1:
		if !validPayload(msg.Indices, msg.Values, p.ctx.L()) {
			return // malformed (possible only from faulty senders)
		}
		p.learnSet(msg.Indices, msg.Values)
		if p.phase == msg.Phase {
			if !p.heard[from] {
				p.heard[from] = true
				p.heardCount++
			}
			p.checkWait1()
		}
		p.recheck()
	case *Req2:
		if p.phase > msg.Phase || (p.phase == msg.Phase && p.stage >= stWait2) || p.stage == stFinal {
			p.answerReq2(from, msg)
		} else {
			p.defer2[msg.Phase] = append(p.defer2[msg.Phase], deferred2{from, msg})
		}
	case *Resp2:
		L := p.ctx.L()
		for _, it := range msg.Items {
			if validPayload(it.Indices, it.Values, L) {
				p.learnSet(it.Indices, it.Values)
			}
		}
		if p.phase == msg.Phase && p.stage == stWait2 {
			p.resp2Count++
			p.checkWait2()
		}
		p.recheck()
	case *Full:
		if msg.Values == nil || msg.Values.Len() != p.ctx.L() {
			return // malformed
		}
		p.track.LearnRange(0, msg.Values.Len(), msg.Values, 0)
		// A full array always completes the tracker.
		p.complete()
	}
}

// recheck lets value learning (from late or out-of-phase responses)
// trigger the Fast early exit.
func (p *Peer) recheck() {
	if p.opts.Fast && p.stage == stWait2 {
		p.checkWait2()
	}
}

func (p *Peer) answerReq1(from sim.PeerID, req *Req1) {
	if !inRange(req.Indices, p.ctx.L()) {
		return // malformed request
	}
	vals, complete := p.extract(req.Indices)
	if !complete {
		// Corollary 2.7 says this cannot happen for honest requesters;
		// tolerate Byzantine-malformed requests by simply not answering.
		return
	}
	p.ctx.Send(from, &Resp1{Phase: req.Phase, Indices: req.Indices, Values: vals, IdxBits: p.idxBits})
}

// extract gathers the tracked values of set into a fresh array, a word-
// level range at a time; ok is false if any requested bit is unknown.
// Known-ness is checked before allocating: answering "me neither" (the
// common case under heavy crash fractions) must not allocate at all.
func (p *Peer) extract(set intset.Set) (vals *bitarray.Array, ok bool) {
	if !p.allKnown(set) {
		return nil, false
	}
	vals = bitarray.New(set.Len())
	i := 0
	set.ForEachRange(func(lo, hi int) {
		p.track.CopyRange(vals, i, lo, hi)
		i += hi - lo
	})
	return vals, true
}

func (p *Peer) answerReq2(from sim.PeerID, req *Req2) {
	// Having heard q this phase implies knowing every requested bit (the
	// stage-1 answer covered them); knowing them all without having heard
	// q is just as good, so the answer rule is simply "values if I know
	// them all, me-neither otherwise". Each item is ruled on once, before
	// anything is copied: the answered items' values then share one arena
	// allocation, and the me-neither peers, which ascend like the request's,
	// one range array sized by the runs they form. An item held as its
	// encoding is ruled by walking it, which stops at the first range that
	// is unknown, and only an answered one is unpacked.
	n, L := p.ctx.N(), p.ctx.L()
	ruled := p.ruled[:0]
	answered, total, runs := 0, 0, 0
	prev, lastNeither := -1, -2
	for _, it := range req.Items {
		q := int(it.Q)
		if q <= prev || q >= n {
			return // malformed: peers out of order or out of range
		}
		prev = q
		var ok bool
		if set, held := it.Indices.Held(); held {
			ok = !p.firstUnknown(set, L) && inRange(set, L) && p.allKnown(set)
		} else if lo, hi := it.Indices.Bounds(); lo >= 0 && hi <= L {
			ok = it.Indices.Walk(p.knownRange)
		}
		ruled = append(ruled, ok)
		if ok {
			answered++
			total += it.Indices.Len()
			continue
		}
		if q != lastNeither+1 {
			runs++
		}
		lastNeither = q
	}
	p.ruled = ruled
	resp := &Resp2{Phase: req.Phase, IdxBits: p.idxBits}
	var ar *bitarray.Arena
	if answered > 0 {
		ar = bitarray.NewArena(answered, total)
		resp.Items = make([]Resp2Item, 0, answered)
	}
	var neither []intset.Range
	if runs > 0 {
		neither = make([]intset.Range, 0, runs)
	}
	for k, it := range req.Items {
		if !ruled[k] {
			if last := len(neither) - 1; last >= 0 && neither[last].Hi == int32(it.Q) {
				neither[last].Hi++
			} else {
				neither = append(neither, intset.Range{Lo: int32(it.Q), Hi: int32(it.Q) + 1})
			}
			continue
		}
		set := it.Indices.Set()
		vals := ar.New(set.Len())
		i := 0
		set.ForEachRange(func(lo, hi int) {
			p.track.CopyRange(vals, i, lo, hi)
			i += hi - lo
		})
		resp.Items = append(resp.Items, Resp2Item{Q: it.Q, Indices: set, Values: vals})
	}
	resp.MeNeither = intset.FromRanges(neither)
	p.ctx.Send(from, resp)
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
	return values != nil && values.Len() == set.Len() && inRange(set, L)
}

// inRange reports whether every index of the set lies in [0, L). A Set's
// ranges are sorted, so its bounds decide for all of them.
func inRange(set intset.Set, L int) bool {
	lo, hi := set.Bounds()
	return lo >= 0 && hi <= L
}

// firstUnknown reports whether set's first index is a bit of [0, L) that
// p does not know. Such an item is me-neither whatever its other ranges
// hold, so answerReq2 rules it with this one probe and reads no further.
func (p *Peer) firstUnknown(set intset.Set, L int) bool {
	rs := set.Ranges()
	return len(rs) > 0 && rs[0].Lo >= 0 && int(rs[0].Lo) < L && !p.track.Known(int(rs[0].Lo))
}
