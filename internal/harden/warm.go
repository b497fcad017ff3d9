package harden

import (
	"repro/internal/bitarray"
	"repro/internal/intset"
	"repro/internal/sim"
)

// Cache is one peer's carried store of source-verified bits. Every bit in
// it was read directly from the trusted source — either by the wrapped
// protocol's own queries or by the supervisor's audit — so it stays valid
// across escalation attempts regardless of how badly a run went. The
// warm-start wrapper serves queries for cached indices locally, which is
// what makes escalation cost proportional to the still-unverified
// remainder instead of a full restart.
type Cache struct {
	t *bitarray.Tracker
}

// NewCache returns an empty cache over L bits.
func NewCache(L int) *Cache { return &Cache{t: bitarray.NewTracker(L)} }

// Learn records a source-verified value for index i. The source is
// authoritative, so a repeated learn overwrites (it never differs in
// practice: the source is consistent).
func (c *Cache) Learn(i int, v bool) { c.t.LearnFromSource(i, v) }

// Lookup returns the verified value of index i; ok is false when i has
// not been verified.
func (c *Cache) Lookup(i int) (v, ok bool) { return c.t.Get(i) }

// Count returns the number of verified indices.
func (c *Cache) Count() int { return c.t.Len() - c.t.UnknownCount() }

// Verified returns the verified indices as coalesced ranges.
func (c *Cache) Verified() intset.Set {
	var b intset.Builder
	for i := 0; i < c.t.Len(); i++ {
		if c.t.Known(i) {
			b.Add(i)
		}
	}
	return b.Set()
}

// warmStats counts cache activity for one peer during one attempt.
type warmStats struct {
	// hitBits is the number of queried bits served from the cache instead
	// of the source.
	hitBits int
}

// cachedHit is the cache-served part of one Query call, parked until the
// source answers the miss part so the merged reply reaches the protocol
// as a single QueryReply (protocols correlate replies by tag).
type cachedHit struct {
	indices []int
	values  []bool
}

// warmPeer wraps an honest protocol instance with the warm-start cache:
// outgoing queries are split into cache hits and misses, only misses
// reach the source (and are charged as Q), and every source answer is
// recorded into the cache for the next escalation rung.
type warmPeer struct {
	inner   sim.Peer
	cache   *Cache
	stats   *warmStats
	pending map[int][]cachedHit // per query tag, FIFO
}

var _ sim.Peer = (*warmPeer)(nil)

func (w *warmPeer) Init(ctx sim.Context) {
	w.inner.Init(&warmCtx{Context: ctx, w: w})
}

func (w *warmPeer) OnMessage(from sim.PeerID, m sim.Message) {
	w.inner.OnMessage(from, m)
}

func (w *warmPeer) OnQueryReply(r sim.QueryReply) {
	// Everything the source answered is now verified.
	for j, idx := range r.Indices {
		w.cache.Learn(idx, r.Bits.Get(j))
	}
	// Merge the parked cache hits (if any) for this tag into the reply.
	// The FIFO pairing can attach hits to a different same-tag batch when
	// several queries share a tag, but every merged value is source truth,
	// so the protocol's view stays consistent either way.
	if q := w.pending[r.Tag]; len(q) > 0 {
		h := q[0]
		if len(q) == 1 {
			delete(w.pending, r.Tag)
		} else {
			w.pending[r.Tag] = q[1:]
		}
		indices := make([]int, 0, len(r.Indices)+len(h.indices))
		bits := bitarray.New(len(r.Indices) + len(h.indices))
		for j, idx := range r.Indices {
			bits.Set(len(indices), r.Bits.Get(j))
			indices = append(indices, idx)
		}
		for j, idx := range h.indices {
			bits.Set(len(indices), h.values[j])
			indices = append(indices, idx)
		}
		r = sim.QueryReply{Tag: r.Tag, Indices: indices, Bits: bits}
	}
	w.inner.OnQueryReply(r)
}

// warmCtx is the context handed to the wrapped protocol: identical to the
// runtime's except that Query consults the cache first.
type warmCtx struct {
	sim.Context
	w *warmPeer
}

func (c *warmCtx) Query(tag int, indices []int) {
	w := c.w
	var hit cachedHit
	var miss []int
	for _, idx := range indices {
		if v, ok := w.cache.Lookup(idx); ok {
			hit.indices = append(hit.indices, idx)
			hit.values = append(hit.values, v)
		} else {
			miss = append(miss, idx)
		}
	}
	if len(hit.indices) == 0 {
		c.Context.Query(tag, indices)
		return
	}
	w.stats.hitBits += len(hit.indices)
	w.pending[tag] = append(w.pending[tag], hit)
	// Forward the misses — possibly none: an empty query charges zero
	// bits but still produces the asynchronous reply the protocol is
	// waiting for, onto which the cached values are merged.
	c.Context.Query(tag, miss)
}
