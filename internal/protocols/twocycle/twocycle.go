// Package twocycle implements the 2-cycle randomized asynchronous
// Byzantine Download protocol (Protocol 4 / Theorem 3.7), for β < 1/2.
//
// Cycle 1: the input is partitioned into m segments. Each peer picks one
// uniformly at random, queries it in full, and broadcasts ⟨segment, value⟩.
//
// Cycle 2: after hearing segment values from n−t−1 distinct other peers
// (waiting for more risks deadlock; up to t of those heard may be
// Byzantine, which is why the analysis only counts the guaranteed
// gap = n−2t honest ones), the peer processes every segment: the strings
// reported at least k times form the candidate set, a decision tree
// (package dtree) is built over them, and one batch of source queries at
// the trees' separating indices eliminates every forged version — the
// source is trusted, so a lie can survive only by agreeing with X
// everywhere the tree looks, and the tree looks exactly where versions
// disagree. With high probability every segment's candidate set contains
// the true string (Claim 5), so the peer reconstructs X exactly.
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
	"repro/internal/bitarray"
	"repro/internal/dtree"
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
	return func(sim.PeerID) sim.Peer { return &Peer{opts: opts} }
}

const (
	tagOwnSegment = 1
	tagDetermine  = 2
	tagNaive      = 3
)

const (
	stCycle1  = 1 // querying my segment
	stCollect = 2 // waiting for n−t−1 segment broadcasts
	stResolve = 3 // waiting for the determination batch query
	stDone    = 4
)

// Peer is one protocol instance.
type Peer struct {
	ctx  sim.Context
	opts Options

	params    segproto.Params
	segs      int // m
	threshold int // k
	mymseg    int

	stage int
	col   *segproto.Collector
	track *bitarray.Tracker

	// trees pending resolution after the determination batch query.
	trees  []*dtree.Tree
	direct []dtree.Segment // segments to learn by direct query
	// answers caches determination-query results by absolute index.
	answers map[int]bool
}

var _ sim.Peer = (*Peer)(nil)

// Init implements sim.Peer.
func (p *Peer) Init(ctx sim.Context) {
	p.ctx = ctx
	p.track = bitarray.NewTracker(ctx.L())
	p.col = segproto.NewCollector(ctx.L())
	p.params = segproto.Derive(ctx.N(), ctx.T(), ctx.L())
	p.segs = p.params.Segments
	if p.opts.ForceSegments > 1 && p.opts.ForceSegments <= ctx.L() {
		p.segs = p.opts.ForceSegments
		p.params.Naive = false
	}
	if p.params.Naive {
		p.stage = stResolve
		all := make([]int, ctx.L())
		for i := range all {
			all[i] = i
		}
		ctx.Query(tagNaive, all)
		return
	}
	p.threshold = p.params.Threshold(p.segs)
	if p.opts.ForceThreshold > 0 {
		p.threshold = p.opts.ForceThreshold
	}

	p.stage = stCycle1
	p.myseg()
}

func (p *Peer) myseg() {
	p.mymseg = p.ctx.Rand().Intn(p.segs)
	seg := dtree.SegmentOf(p.ctx.L(), p.segs, p.mymseg)
	idx := make([]int, 0, seg.Len)
	for i := seg.Start; i < seg.End(); i++ {
		idx = append(idx, i)
	}
	p.ctx.Query(tagOwnSegment, idx)
}

// OnQueryReply implements sim.Peer.
func (p *Peer) OnQueryReply(r sim.QueryReply) {
	if p.stage == stDone {
		return
	}
	for j, idx := range r.Indices {
		p.track.LearnFromSource(idx, r.Bits.Get(j))
	}
	switch r.Tag {
	case tagOwnSegment:
		seg := dtree.SegmentOf(p.ctx.L(), p.segs, p.mymseg)
		vals, ok := p.track.KnownSegment(seg.Start, seg.Len)
		if !ok {
			panic("twocycle: own segment unknown after query")
		}
		p.ctx.Broadcast(&segproto.SegValue{
			Cycle:   1,
			Seg:     p.mymseg,
			Values:  vals,
			IdxBits: segproto.IndexBits(p.ctx.L()),
		})
		p.stage = stCollect
		p.checkCollect()
	case tagDetermine:
		for j, idx := range r.Indices {
			p.answers[idx] = r.Bits.Get(j)
		}
		p.finishResolve()
	case tagNaive:
		p.finish()
	}
}

// OnMessage implements sim.Peer.
func (p *Peer) OnMessage(from sim.PeerID, m sim.Message) {
	if p.stage == stDone || p.params.Naive {
		return
	}
	sv, ok := m.(*segproto.SegValue)
	if !ok || sv.Cycle != 1 {
		return
	}
	p.col.Accept(from, sv, p.segs)
	p.checkCollect()
}

func (p *Peer) checkCollect() {
	if p.stage != stCollect {
		return
	}
	if p.col.Count(1) < p.ctx.N()-p.ctx.T()-1 {
		return
	}
	p.beginResolve()
}

// beginResolve builds decision trees for every segment from the k-frequent
// strings and issues one batch query covering all separating indices plus
// the full contents of any segment with no candidates.
func (p *Peer) beginResolve() {
	p.stage = stResolve
	p.answers = make(map[int]bool)
	var queryIdx []int
	seen := make(map[int]bool)
	add := func(x int) {
		if !seen[x] {
			seen[x] = true
			queryIdx = append(queryIdx, x)
		}
	}
	for s := 0; s < p.segs; s++ {
		seg := dtree.SegmentOf(p.ctx.L(), p.segs, s)
		if s == p.mymseg {
			continue // learned directly from the source
		}
		strs := p.col.Strings(1, s)
		// My own broadcast counts as one sender's string for me too.
		if known, ok := p.track.KnownSegment(seg.Start, seg.Len); ok {
			strs = append(strs, known)
		}
		freq := dtree.Frequent(strs, p.threshold)
		if len(freq) == 0 {
			// No candidate reached the threshold: query the segment
			// outright. Correct, just more expensive — the w.h.p.
			// analysis makes this rare.
			p.direct = append(p.direct, seg)
			for i := seg.Start; i < seg.End(); i++ {
				add(i)
			}
			continue
		}
		tree, err := dtree.Build(seg, freq)
		if err != nil {
			panic("twocycle: tree build failed: " + err.Error())
		}
		p.trees = append(p.trees, tree)
		for _, x := range tree.InternalIndices() {
			add(x)
		}
	}
	if len(queryIdx) == 0 {
		p.finishResolve()
		return
	}
	p.ctx.Query(tagDetermine, queryIdx)
}

// finishResolve walks every tree with the batched answers and assembles
// the output.
func (p *Peer) finishResolve() {
	for _, tree := range p.trees {
		seg := tree.Segment()
		val := tree.Resolve(func(abs int) bool {
			if v, ok := p.answers[abs]; ok {
				return v
			}
			v, ok := p.track.Get(abs)
			if !ok {
				panic("twocycle: unanswered separating index")
			}
			return v
		})
		p.learnSegment(seg, val)
	}
	// Direct segments were learned straight from the query reply.
	p.finish()
}

func (p *Peer) learnSegment(seg dtree.Segment, val *bitarray.Array) {
	for i := 0; i < seg.Len; i++ {
		x := seg.Start + i
		if p.track.Known(x) {
			continue // trust the source over any resolved string
		}
		p.forceLearn(x, val.Get(i))
	}
}

// forceLearn records a resolved (not source-verified) bit. Unlike
// Tracker.Learn it cannot conflict: only unknown bits reach it.
func (p *Peer) forceLearn(x int, v bool) { p.track.Learn(x, v) }

func (p *Peer) finish() {
	if p.stage == stDone {
		return
	}
	if !p.track.Complete() {
		// Resolution left gaps (cannot happen: every non-own segment is
		// either tree-resolved or direct-queried) — fail loudly.
		panic("twocycle: incomplete after resolution")
	}
	out, err := p.track.Output()
	if err != nil {
		panic("twocycle: output failed: " + err.Error())
	}
	p.ctx.Output(out)
	p.stage = stDone
	p.ctx.Terminate()
}
