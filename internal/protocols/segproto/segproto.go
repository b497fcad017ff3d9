// Package segproto is the segment engine of the randomized Byzantine
// Download protocols: one honest peer (Peer) that runs a partition
// schedule, the segment count of each cycle ending at 1. Packages
// twocycle (Protocol 4, the schedule [m, 1]) and multicycle (Theorem
// 3.12, the dyadic [m₁, m₁/2, …, 1]) are its two schedules, both derived
// by Params.Schedule. The package also holds the segment-value message,
// the derivation of the segment-count/frequency-threshold parameters, the
// per-sender bookkeeping of received segment strings, and the attackers
// that target it.
//
// Parameter reconstruction (the paper's inline formulas were lost in
// transit; see DESIGN.md): with t = βn Byzantine peers and β < 1/2, any
// honest peer that waits for n−t−1 messages hears from at least
// gap = n−2t honest peers. Segments are picked uniformly at random, so a
// given segment is picked by gap/m honest heard-from peers in expectation.
// Choosing m = ⌊gap/(c·ln n)⌋ makes that expectation at least c·ln n, and
// the frequency threshold k = ⌈gap/(2m)⌉ — half the expectation — is then
// exceeded with probability 1 − n^{−Θ(c)} by a Chernoff bound, uniformly
// over all segments, peers, and (for the multi-cycle protocol) cycles.
// When the derivation degenerates (m ≤ 1), the protocol falls back to
// querying the whole input (the one-cycle schedule [1]), mirroring the
// paper's case analysis.
package segproto

import (
	"math"
	"math/bits"

	"repro/internal/bitarray"
	"repro/internal/dtree"
	"repro/internal/sim"
)

const headerBits = 64

// IndexBits returns the width of one index word for input length L.
func IndexBits(L int) int {
	if L <= 1 {
		return 1
	}
	return bits.Len(uint(L - 1))
}

// SegValue announces "the value of segment Seg (in cycle Cycle's
// partition) is Values". Honest peers send exactly one per cycle.
type SegValue struct {
	Cycle  int
	Seg    int
	Values *bitarray.Array
	// IdxBits sizes the segment-id field for accounting.
	IdxBits int
}

var _ sim.Message = (*SegValue)(nil)
var _ sim.Claimer = (*SegValue)(nil)

// SizeBits implements sim.Message.
func (m *SegValue) SizeBits() int { return headerBits + m.IdxBits + m.Values.Len() }

// Claims implements sim.Claimer: the message asserts one segment string,
// keyed by (cycle, segment) and fingerprinted by its hash. A sender
// announcing two different strings for the same segment of the same cycle
// is equivocating.
func (m *SegValue) Claims(dst []sim.Claim) []sim.Claim {
	if m.Values == nil {
		return dst
	}
	return append(dst, sim.Claim{
		Domain: "seg",
		Key:    int64(m.Cycle)<<32 | int64(uint32(m.Seg)),
		Value:  m.Values.Hash(),
	})
}

// Params are the derived protocol parameters.
type Params struct {
	// Naive indicates the degenerate regime where every peer queries the
	// entire input directly.
	Naive bool
	// Segments is m, the number of cycle-1 segments.
	Segments int
	// Gap is n − 2t, the guaranteed number of honest peers among any
	// n−t−1 heard-from set (plus self).
	Gap int
}

// DefaultC is the concentration constant: it balances segment count
// against failure probability.
const DefaultC = 4.0

// Derive computes protocol parameters for n peers, t faults, and input
// length L.
func Derive(n, t, L int) Params {
	gap := n - 2*t
	p := Params{Gap: gap}
	if gap <= 0 {
		p.Naive = true
		return p
	}
	m := int(float64(gap) / (DefaultC * math.Log(float64(n))))
	if m > L {
		m = L
	}
	if m <= 1 {
		p.Naive = true
		return p
	}
	p.Segments = m
	return p
}

// PowerOfTwoSegments rounds Segments down to a power of two (≥ 2),
// as the multi-cycle protocol's dyadic refinement requires. It returns
// 0 in the naive regime.
func (p Params) PowerOfTwoSegments() int {
	if p.Naive {
		return 0
	}
	m := 1
	for m*2 <= p.Segments {
		m *= 2
	}
	if m < 2 {
		return 0
	}
	return m
}

// Threshold returns the frequency threshold k for a partition into m
// segments: half the expected number of honest picks per segment.
func (p Params) Threshold(m int) int {
	k := (p.Gap + 2*m - 1) / (2 * m)
	if k < 1 {
		k = 1
	}
	return k
}

// Collector deduplicates segment strings per sender and cycle: the first
// well-formed SegValue from each sender in each cycle counts, matching the
// paper's accounting that each peer contributes at most one string per
// cycle (so Byzantine peers can inflate decision trees by at most one
// version each).
type Collector struct {
	L int
	// order[c] records accepted messages in arrival order (the des
	// runtime relies on deterministic iteration; maps would break it),
	// seen[c] deduplicates senders.
	order map[int][]*SegValue
	seen  map[int]map[sim.PeerID]bool
}

// NewCollector returns a Collector for input length L.
func NewCollector(L int) *Collector {
	return &Collector{
		L:     L,
		order: make(map[int][]*SegValue),
		seen:  make(map[int]map[sim.PeerID]bool),
	}
}

// Accept records a message if well-formed for its cycle's partition into
// segs segments and first from its sender for its cycle; it reports
// whether the message was recorded.
func (col *Collector) Accept(from sim.PeerID, m *SegValue, segs int) bool {
	if m == nil || m.Values == nil || m.Cycle < 1 || m.Seg < 0 || m.Seg >= segs ||
		m.Values.Len() != dtree.SegmentOf(col.L, segs, m.Seg).Len {
		return false
	}
	byFrom := col.seen[m.Cycle]
	if byFrom == nil {
		byFrom = make(map[sim.PeerID]bool)
		col.seen[m.Cycle] = byFrom
	}
	if byFrom[from] {
		return false
	}
	byFrom[from] = true
	col.order[m.Cycle] = append(col.order[m.Cycle], m)
	return true
}

// Count returns the number of distinct senders recorded for a cycle.
func (col *Collector) Count(cycle int) int { return len(col.order[cycle]) }

// Strings returns the recorded strings for segment seg of a cycle, one
// entry per sender, in arrival order.
func (col *Collector) Strings(cycle, seg int) []*bitarray.Array {
	var out []*bitarray.Array
	for _, m := range col.order[cycle] {
		if m.Seg == seg {
			out = append(out, m.Values)
		}
	}
	return out
}

// FrequentFor returns the k-frequent strings for segment seg of a cycle.
func (col *Collector) FrequentFor(cycle, seg, k int) []*bitarray.Array {
	return dtree.Frequent(col.Strings(cycle, seg), k)
}
