// Package multicycle implements the O(log n·log L)-cycle randomized
// asynchronous Byzantine Download protocol (Theorem 3.12), for β < 1/2.
//
// Cycle 1 is exactly the first cycle of the 2-cycle protocol: partition
// the input into m₁ segments (m₁ rounded to a power of two), pick one
// uniformly at random, query it, broadcast its value. In every later
// cycle i the segment size doubles (m_i = m₁/2^{i−1}): each peer picks an
// i-segment uniformly at random, reconstructs its two component
// (i−1)-segments by building decision trees over the strings received at
// least k_{i−1} times in cycle i−1, queries the trees' separating indices
// to eliminate forged versions, broadcasts the assembled i-segment value,
// and waits for n−t−1 cycle-i broadcasts before advancing. After
// D = log₂(m₁)+1 cycles a peer's segment is the whole input, so it
// outputs and terminates.
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
	"repro/internal/bitarray"
	"repro/internal/dtree"
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
	return func(sim.PeerID) sim.Peer { return &Peer{opts: opts} }
}

const (
	tagNaive = -1
)

const (
	stQuery   = 1 // waiting for this cycle's source batch
	stCollect = 2 // waiting for n−t−1 broadcasts of this cycle
	stDone    = 3
)

// Peer is one protocol instance.
type Peer struct {
	ctx  sim.Context
	opts Options

	params segproto.Params
	m1     int // cycle-1 segment count (power of two)
	cycles int // D

	cycle int
	stage int

	col   *segproto.Collector
	track *bitarray.Tracker

	myseg   int // segment picked this cycle
	trees   []*dtree.Tree
	answers map[int]bool
	naive   bool
}

var _ sim.Peer = (*Peer)(nil)

// segsAt returns the number of segments in cycle i's partition.
func (p *Peer) segsAt(i int) int { return p.m1 >> uint(i-1) }

// thresholdAt returns the frequency threshold applied to cycle-i strings.
func (p *Peer) thresholdAt(i int) int {
	if p.opts.ForceThreshold > 0 {
		return p.opts.ForceThreshold
	}
	return p.params.Threshold(p.segsAt(i))
}

// Init implements sim.Peer.
func (p *Peer) Init(ctx sim.Context) {
	p.ctx = ctx
	p.track = bitarray.NewTracker(ctx.L())
	p.col = segproto.NewCollector(ctx.L())
	p.answers = make(map[int]bool)
	p.params = segproto.Derive(ctx.N(), ctx.T(), ctx.L())
	if p.opts.ForceSegments > 1 {
		p.params.Naive = false
		p.params.Segments = p.opts.ForceSegments
	}
	p.m1 = p.params.PowerOfTwoSegments()
	if p.params.Naive || p.m1 < 2 {
		p.naive = true
		all := make([]int, ctx.L())
		for i := range all {
			all[i] = i
		}
		ctx.Query(tagNaive, all)
		return
	}
	p.cycles = 1
	for m := p.m1; m > 1; m >>= 1 {
		p.cycles++
	}
	p.startCycle(1)
}

// startCycle begins cycle i: pick a segment, obtain its value (by direct
// query in cycle 1, by determination later), broadcast it, collect.
func (p *Peer) startCycle(i int) {
	p.cycle = i
	p.stage = stQuery
	p.trees = nil
	p.answers = make(map[int]bool)
	segs := p.segsAt(i)
	p.myseg = p.ctx.Rand().Intn(segs)

	if i == 1 {
		seg := dtree.SegmentOf(p.ctx.L(), segs, p.myseg)
		idx := make([]int, 0, seg.Len)
		for x := seg.Start; x < seg.End(); x++ {
			idx = append(idx, x)
		}
		p.ctx.Query(i, idx)
		return
	}

	// Determine my i-segment from its two (i−1)-subsegments.
	prevSegs := p.segsAt(i - 1)
	k := p.thresholdAt(i - 1)
	var queryIdx []int
	seen := make(map[int]bool)
	add := func(x int) {
		if !seen[x] {
			seen[x] = true
			queryIdx = append(queryIdx, x)
		}
	}
	for _, child := range []int{2 * p.myseg, 2*p.myseg + 1} {
		seg := dtree.SegmentOf(p.ctx.L(), prevSegs, child)
		if _, ok := p.track.KnownSegment(seg.Start, seg.Len); ok {
			continue // already known from an earlier cycle
		}
		strs := p.col.Strings(i-1, child)
		freq := dtree.Frequent(strs, k)
		if len(freq) == 0 {
			// No candidate reached the threshold: query the subsegment
			// outright (rare under the w.h.p. analysis).
			for x := seg.Start; x < seg.End(); x++ {
				add(x)
			}
			continue
		}
		tree, err := dtree.Build(seg, freq)
		if err != nil {
			panic("multicycle: tree build failed: " + err.Error())
		}
		p.trees = append(p.trees, tree)
		for _, x := range tree.InternalIndices() {
			add(x)
		}
	}
	if len(queryIdx) == 0 {
		p.afterQuery()
		return
	}
	p.ctx.Query(i, queryIdx)
}

// afterQuery resolves the pending trees, records my segment value,
// broadcasts it (except in the final cycle), and starts collecting.
func (p *Peer) afterQuery() {
	for _, tree := range p.trees {
		seg := tree.Segment()
		val := tree.Resolve(func(abs int) bool {
			if v, ok := p.answers[abs]; ok {
				return v
			}
			v, ok := p.track.Get(abs)
			if !ok {
				panic("multicycle: unanswered separating index")
			}
			return v
		})
		for i := 0; i < seg.Len; i++ {
			x := seg.Start + i
			if !p.track.Known(x) {
				p.track.Learn(x, val.Get(i))
			}
		}
	}
	p.trees = nil

	segs := p.segsAt(p.cycle)
	seg := dtree.SegmentOf(p.ctx.L(), segs, p.myseg)
	vals, ok := p.track.KnownSegment(seg.Start, seg.Len)
	if !ok {
		panic("multicycle: segment incomplete after determination")
	}

	if p.cycle == p.cycles {
		// Final cycle: my segment is the entire input.
		p.finish()
		return
	}
	p.ctx.Broadcast(&segproto.SegValue{
		Cycle:   p.cycle,
		Seg:     p.myseg,
		Values:  vals,
		IdxBits: segproto.IndexBits(p.ctx.L()),
	})
	p.stage = stCollect
	p.checkCollect()
}

func (p *Peer) checkCollect() {
	if p.stage != stCollect {
		return
	}
	if p.col.Count(p.cycle) < p.ctx.N()-p.ctx.T()-1 {
		return
	}
	p.startCycle(p.cycle + 1)
}

// OnQueryReply implements sim.Peer.
func (p *Peer) OnQueryReply(r sim.QueryReply) {
	if p.stage == stDone {
		return
	}
	for j, idx := range r.Indices {
		p.track.LearnFromSource(idx, r.Bits.Get(j))
		p.answers[idx] = r.Bits.Get(j)
	}
	if p.naive {
		p.finish()
		return
	}
	if r.Tag != p.cycle || p.stage != stQuery {
		return
	}
	p.afterQuery()
}

// OnMessage implements sim.Peer.
func (p *Peer) OnMessage(from sim.PeerID, m sim.Message) {
	if p.stage == stDone || p.naive {
		return
	}
	sv, ok := m.(*segproto.SegValue)
	if !ok {
		return
	}
	if sv.Cycle < 1 || sv.Cycle >= p.cycles {
		return
	}
	p.col.Accept(from, sv, p.segsAt(sv.Cycle))
	p.checkCollect()
}

func (p *Peer) finish() {
	if p.stage == stDone {
		return
	}
	if !p.track.Complete() {
		panic("multicycle: incomplete at finish")
	}
	out, err := p.track.Output()
	if err != nil {
		panic("multicycle: output failed: " + err.Error())
	}
	p.ctx.Output(out)
	p.stage = stDone
	p.ctx.Terminate()
}
