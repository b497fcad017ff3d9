package segproto

import (
	"repro/internal/bitarray"
	"repro/internal/dtree"
	"repro/internal/sim"
)

// Schedule returns the partition schedule of a run with these parameters:
// the segment count of each cycle, ending at 1 (the whole input). Protocol
// 4 (package twocycle) is [m, 1], whose one final segment's children are
// all m cycle-1 segments. Theorem 3.12's protocol (package multicycle) is
// dyadic, [m₁, m₁/2, …, 2, 1] with m₁ = m rounded down to a power of two.
// The naive regime is [1]: one cycle that queries the whole input.
func (p Params) Schedule(dyadic bool) []int {
	m := p.Segments
	if dyadic {
		m = p.PowerOfTwoSegments()
	}
	if p.Naive || m < 2 {
		return []int{1}
	}
	if !dyadic {
		return []int{m, 1}
	}
	var s []int
	for ; m > 0; m >>= 1 {
		s = append(s, m)
	}
	return s
}

// Peer is one honest peer of the randomized Byzantine protocols: it runs a
// partition schedule, one cycle per entry. In cycle i it picks a segment
// of that cycle's partition uniformly at random and determines it from its
// children, the cycle-(i−1) segments whose union it is. A child the peer
// does not know yet gets a decision tree over its k-frequent cycle-(i−1)
// strings, or, when none reached k (always in cycle 1, which has heard
// nothing), is queried outright; one batched query tagged i covers every
// child. Unless this is the last cycle, the peer then broadcasts its
// segment and waits for n−t−1 cycle-i broadcasts before the next cycle.
// The last cycle's one segment is the whole input, which it outputs.
type Peer struct {
	ctx  sim.Context
	plan func(p Params, L int) []int
	// threshold, if above 0, replaces the derived k in every cycle.
	threshold int

	params   Params
	schedule []int // segment count of each cycle
	cycle    int   // 1-based
	myseg    int
	stage    int
	col      *Collector
	track    *bitarray.Tracker
	trees    []*dtree.Tree // resolved when this cycle's query returns
}

var _ sim.Peer = (*Peer)(nil)

// NewPeer returns a peer that runs the schedule plan gives for the run's
// derived parameters and input length. A threshold above 0 replaces the
// derived frequency threshold in every cycle.
func NewPeer(plan func(p Params, L int) []int, threshold int) *Peer {
	return &Peer{plan: plan, threshold: threshold}
}

const (
	stQuery   = 1 // waiting for this cycle's source batch
	stCollect = 2 // waiting for n−t−1 broadcasts of this cycle
	stDone    = 3
)

// Init implements sim.Peer.
func (p *Peer) Init(ctx sim.Context) {
	p.ctx = ctx
	p.track = bitarray.NewTracker(ctx.L())
	p.col = NewCollector(ctx.L())
	p.params = Derive(ctx.N(), ctx.T(), ctx.L())
	p.schedule = p.plan(p.params, ctx.L())
	p.startCycle(1)
}

// startCycle begins cycle i: pick a segment and query what its children's
// strings do not settle.
func (p *Peer) startCycle(i int) {
	p.cycle, p.stage = i, stQuery
	segs := p.schedule[i-1]
	p.myseg = 0
	if segs > 1 { // a one-segment cycle has nothing to pick: no draw
		p.myseg = p.ctx.Rand().Intn(segs)
	}
	prev, lo, hi := children(p.schedule, i, p.myseg)
	k := p.threshold
	if k == 0 {
		k = p.params.Threshold(prev)
	}
	var idx []int
	for c := lo; c < hi; c++ {
		seg := dtree.SegmentOf(p.ctx.L(), prev, c)
		if p.track.KnownRange(seg.Start, seg.End()) {
			continue
		}
		freq := p.col.FrequentFor(i-1, c, k)
		if len(freq) == 0 {
			// Past cycle 1 this is rare under the w.h.p. analysis: it
			// costs queries, never correctness.
			for x := seg.Start; x < seg.End(); x++ {
				idx = append(idx, x)
			}
			continue
		}
		tree, err := dtree.Build(seg, freq)
		if err != nil {
			panic("segproto: tree build failed: " + err.Error())
		}
		p.trees = append(p.trees, tree)
		// Children are disjoint and ascending, and each tree's indices
		// are sorted and distinct, so the batch needs no dedupe.
		idx = append(idx, tree.InternalIndices()...)
	}
	if len(idx) == 0 {
		p.afterQuery()
		return
	}
	p.ctx.Query(i, idx)
}

// children returns the children of segment j of cycle i: segments
// [lo, hi) of the partition into prev segments whose union it is. Cycle
// 1's children are its segments themselves.
func children(schedule []int, i, j int) (prev, lo, hi int) {
	prev = schedule[i-1]
	if i > 1 {
		prev = schedule[i-2]
	}
	per := prev / schedule[i-1]
	return prev, j * per, (j + 1) * per
}

// afterQuery resolves this cycle's trees against the source's answers and,
// unless this is the last cycle, broadcasts the segment and collects.
func (p *Peer) afterQuery() {
	for _, tree := range p.trees {
		val := tree.Resolve(func(abs int) bool {
			v, ok := p.track.Get(abs)
			if !ok {
				panic("segproto: unanswered separating index")
			}
			return v
		})
		p.track.LearnSegment(tree.Segment().Start, val) // the source's bits win
	}
	p.trees = nil
	if p.cycle == len(p.schedule) {
		p.finish()
		return
	}
	seg := dtree.SegmentOf(p.ctx.L(), p.schedule[p.cycle-1], p.myseg)
	vals, ok := p.track.KnownSegment(seg.Start, seg.Len)
	if !ok {
		panic("segproto: segment incomplete after determination")
	}
	p.ctx.Broadcast(&SegValue{
		Cycle:   p.cycle,
		Seg:     p.myseg,
		Values:  vals,
		IdxBits: IndexBits(p.ctx.L()),
	})
	p.stage = stCollect
	p.checkCollect()
}

func (p *Peer) checkCollect() {
	if p.stage == stCollect && p.col.Count(p.cycle) >= p.ctx.N()-p.ctx.T()-1 {
		p.startCycle(p.cycle + 1)
	}
}

// OnQueryReply implements sim.Peer.
func (p *Peer) OnQueryReply(r sim.QueryReply) {
	if p.stage == stDone {
		return
	}
	p.track.LearnIndexedFromSource(r.Indices, r.Bits)
	if r.Tag == p.cycle && p.stage == stQuery {
		p.afterQuery()
	}
}

// OnMessage implements sim.Peer. It accepts a SegValue of any cycle that
// broadcasts, 1 ≤ Cycle < len(schedule).
func (p *Peer) OnMessage(from sim.PeerID, m sim.Message) {
	sv, ok := m.(*SegValue)
	if !ok || p.stage == stDone || sv.Cycle < 1 || sv.Cycle >= len(p.schedule) {
		return
	}
	p.col.Accept(from, sv, p.schedule[sv.Cycle-1])
	p.checkCollect()
}

func (p *Peer) finish() {
	out, err := p.track.Output()
	if err != nil {
		panic("segproto: " + err.Error())
	}
	p.ctx.Output(out)
	p.stage = stDone
	p.ctx.Terminate()
}
