package multicycle_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/adversary"
	"repro/internal/des"
	"repro/internal/protocols/multicycle"
	"repro/internal/protocols/segproto"
	"repro/internal/sim"
)

// TestQuickForcedSegments drives the multi-cycle protocol through random
// forced segment counts, input lengths, and fault patterns: correctness
// must hold for every dyadic refinement depth, including awkward L.
//
// The bound behind it, at n = 128 and t = 25 (gap = n − 2t = 78): the
// colluders forge the partitions segproto.Derive gives, m = 4 and then 2,
// and a forged string parses only at m1 = 4. At every other m1 no forgery
// enters a candidate set, so correctness is certain for any L ≥ m1. At
// m1 = 4 the forgery is k-frequent (t ≥ k = ⌈gap/(2·m1)⌉ = 10), and
// correctness is the whp event that every honest peer hears at least k
// honest copies of the true segment, Bin(h ≥ 78, 1/4) with mean ≥ 19.5.
// At this n that event fails in about one run in 130, whatever L is
// (docs/TESTING.md lists a failing input), so the draws come from a fixed
// source, not the clock.
func TestQuickForcedSegments(t *testing.T) {
	f := func(seed int64, segPow, lU uint8, silent bool) bool {
		m1 := 1 << (uint(segPow)%5 + 1) // 2..32
		L := int(lU)%2000 + m1          // ≥ one bit per segment
		const n = 128
		tf := n / 5
		faulty := adversary.SpreadFaulty(n, tf)
		behavior := segproto.NewColludingLiar
		if silent {
			behavior = adversary.NewSilent
		}
		res, err := des.New().Run(&sim.Spec{
			Config:  sim.Config{N: n, T: tf, L: L, MsgBits: 64, Seed: seed},
			NewPeer: multicycle.NewWithOptions(multicycle.Options{ForceSegments: m1}),
			Delays:  adversary.NewRandomUnit(seed + 1),
			Faults: sim.FaultSpec{
				Model: sim.FaultByzantine, Faulty: faulty,
				NewByzantine: behavior,
			},
		})
		if err != nil || !res.Correct {
			t.Logf("m1=%d L=%d seed=%d silent=%v: err=%v res=%v", m1, L, seed, silent, err, res)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}
