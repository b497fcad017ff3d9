package segproto

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/bitarray"
	"repro/internal/dtree"
	"repro/internal/sim"
	"repro/internal/sim/simtest"
)

// schedules returns twocycle's [m, 1] for every m in [2, 64] and every
// dyadic schedule those m round to.
func schedules(t *testing.T) [][]int {
	t.Helper()
	var out [][]int
	for m := 2; m <= 64; m++ {
		p := Params{Segments: m, Gap: 100}
		two, multi := p.Schedule(false), p.Schedule(true)
		if !slices.Equal(two, []int{m, 1}) {
			t.Fatalf("Schedule(false) at m=%d = %v", m, two)
		}
		m1 := p.PowerOfTwoSegments()
		for i, s := range multi {
			if s != m1>>uint(i) {
				t.Fatalf("Schedule(true) at m=%d = %v", m, multi)
			}
		}
		if multi[len(multi)-1] != 1 {
			t.Fatalf("Schedule(true) at m=%d = %v does not end at 1", m, multi)
		}
		out = append(out, two, multi)
	}
	return out
}

// TestChildrenTileTheirSegment: under dtree.SegmentOf every segment of
// cycle i is exactly the union of its children in cycle i−1, for L that
// the segment counts do not divide.
func TestChildrenTileTheirSegment(t *testing.T) {
	check := func(schedule []int, L int) bool {
		for i := 1; i <= len(schedule); i++ {
			next := 0 // the first cycle-(i−1) segment no child has claimed
			for j := 0; j < schedule[i-1]; j++ {
				seg := dtree.SegmentOf(L, schedule[i-1], j)
				prev, lo, hi := children(schedule, i, j)
				if lo != next || hi <= lo {
					return false
				}
				at := seg.Start
				for c := lo; c < hi; c++ {
					child := dtree.SegmentOf(L, prev, c)
					if child.Start != at {
						return false
					}
					at = child.End()
				}
				if at != seg.End() {
					return false
				}
				next = hi
			}
			if i > 1 && next != schedule[i-2] {
				return false // some child has no parent
			}
		}
		return true
	}
	for _, s := range schedules(t) {
		m := s[0]
		for _, L := range []int{m + 1, 3*m + 2, 10007} {
			if L%m == 0 {
				continue
			}
			if !check(s, L) {
				t.Errorf("schedule %v, L=%d: children do not tile their segments", s, L)
			}
		}
	}
	all := schedules(t)
	f := func(pick uint8, lU uint16) bool {
		s := all[int(pick)%len(all)]
		return check(s, int(lU)+s[0])
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// TestPeerIgnoresOutOfScheduleCycles: a SegValue is accepted only for a
// broadcasting cycle, 1 ≤ Cycle < len(schedule).
func TestPeerIgnoresOutOfScheduleCycles(t *testing.T) {
	const n, tf, L = 8, 1, 64
	wait := n - tf - 1
	for _, schedule := range [][]int{{4, 1}, {4, 2, 1}} {
		ctx := simtest.New(0, n, tf, L)
		p := NewPeer(func(Params, int) []int { return schedule }, 1)
		p.Init(ctx)
		q := ctx.Queries[0]
		p.OnQueryReply(sim.QueryReply{Tag: q.Tag, Indices: q.Indices, Bits: bitarray.New(len(q.Indices))})
		if len(ctx.Sent) != 1 {
			t.Fatalf("%v: cycle 1 sent %d broadcasts", schedule, len(ctx.Sent))
		}
		for _, cycle := range []int{0, len(schedule), len(schedule) + 1} {
			for from := sim.PeerID(1); int(from) <= wait; from++ {
				// The whole input: well formed for the last cycle's one
				// segment, so only the cycle is wrong.
				p.OnMessage(from, &SegValue{Cycle: cycle, Seg: 0, Values: bitarray.New(L)})
			}
			if got := p.col.Count(cycle); got != 0 {
				t.Errorf("%v: %d SegValues of cycle %d accepted", schedule, got, cycle)
			}
		}
		if p.cycle != 1 || len(ctx.Queries) != 1 || ctx.Out != nil {
			t.Fatalf("%v: out-of-schedule broadcasts moved the peer to cycle %d", schedule, p.cycle)
		}
		// Positive control: n−t−1 cycle-1 broadcasts start cycle 2.
		for from := sim.PeerID(1); int(from) <= wait; from++ {
			p.OnMessage(from, &SegValue{Cycle: 1, Seg: int(from) % 4, Values: bitarray.New(L / 4)})
		}
		if p.cycle != 2 {
			t.Errorf("%v: cycle-1 broadcasts left the peer in cycle %d", schedule, p.cycle)
		}
	}
}

// handForgeries is the (cycle, segment count) list ColludingLiar forged
// when it worked out both schedules by hand: the 2-cycle partition, the
// rounded multi-cycle partition when it differs, then cycles 2..D−1.
func handForgeries(p Params) [][2]int {
	if p.Naive {
		return nil
	}
	out := [][2]int{{1, p.Segments}}
	m := p.PowerOfTwoSegments()
	if m >= 2 && m != p.Segments {
		out = append(out, [2]int{1, m})
	}
	for cycle := 2; m >= 4; cycle++ {
		m >>= 1
		out = append(out, [2]int{cycle, m})
	}
	return out
}

// TestColludingLiarForgesBothSchedules: the liar reads both schedules and
// sends the broadcasts its hand-written loop sent, in the same order.
func TestColludingLiarForgesBothSchedules(t *testing.T) {
	nonNaive := 0
	f := func(nU, tU, lU uint16) bool {
		n := int(nU)%3000 + 2
		tf := int(tU) % (n/2 + 1)
		L := int(lU)%5000 + 2
		params := Derive(n, tf, L)
		if !params.Naive {
			nonNaive++
		}
		know := knowledgeFor(n, tf, L)
		ctx := simtest.New(0, n, tf, L)
		NewColludingLiar(0, know).Init(ctx)
		want := handForgeries(params)
		if len(ctx.Sent) != len(want) {
			t.Logf("n=%d t=%d L=%d: %d broadcasts, want %d", n, tf, L, len(ctx.Sent), len(want))
			return false
		}
		for i, w := range want {
			sv := ctx.Sent[i].Msg.(*SegValue)
			seg := dtree.SegmentOf(L, w[1], 0)
			forged := know.Input.Slice(seg.Start, seg.Len)
			for b := 0; b < seg.Len; b++ {
				forged.Set(b, !forged.Get(b))
			}
			if ctx.Sent[i].To != simtest.Broadcast || sv.Cycle != w[0] || sv.Seg != 0 || !sv.Values.Equal(forged) {
				t.Logf("n=%d t=%d L=%d: broadcast %d is (cycle %d, %d bits), want (cycle %d, m=%d)",
					n, tf, L, i, sv.Cycle, sv.Values.Len(), w[0], w[1])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
	if nonNaive < 50 {
		t.Errorf("only %d of 300 draws left the naive regime", nonNaive)
	}
}
