package crashk_test

import (
	"fmt"
	"testing"

	"repro/internal/adversary"
	"repro/internal/protocols/crashk"
	"repro/internal/sim"
	"repro/internal/testutil"
)

func TestNoFaults(t *testing.T) {
	for _, n := range []int{2, 3, 8, 16} {
		for _, L := range []int{1, 7, 256, 1 << 12} {
			res := testutil.RunCorrect(t, &testutil.Case{
				Name: fmt.Sprintf("n=%d L=%d", n, L),
				N:    n, T: 0, L: L, Seed: int64(n*1000 + L),
				NewPeer: crashk.New,
			})
			// With no faults every peer should stay near L/n + threshold.
			bound := 3*(L/n+1) + 8
			testutil.RequireQAtMost(t, res, bound, fmt.Sprintf("n=%d L=%d", n, L))
		}
	}
}

func TestCrashGrid(t *testing.T) {
	type cfg struct{ n, tFaults, L int }
	cfgs := []cfg{
		{4, 1, 512},
		{8, 2, 1024},
		{8, 6, 1024}, // β = 0.75 > 1/2: crash protocols tolerate ANY β < 1
		{16, 8, 4096},
		{16, 15, 2048}, // β ≈ 0.94
		{5, 4, 300},
	}
	for _, c := range cfgs {
		faulty := adversary.SpreadFaulty(c.n, c.tFaults)
		for name, fates := range testutil.CrashFates(99, faulty, c.n) {
			for seed := int64(0); seed < 3; seed++ {
				label := fmt.Sprintf("n=%d t=%d L=%d %s seed=%d", c.n, c.tFaults, c.L, name, seed)
				t.Run(label, func(t *testing.T) {
					testutil.RunCorrect(t, &testutil.Case{
						Name: label,
						N:    c.n, T: c.tFaults, L: c.L, Seed: seed,
						NewPeer: crashk.New,
						Faults:  sim.Faults{Fates: fates},
					})
				})
			}
		}
	}
}

func TestQueryComplexityScalesAsLOverN(t *testing.T) {
	// Theorem 2.13: Q = O(L/n) for any β < 1. The constant grows as
	// 1/(1−β); check Q ≤ c·L/(n−t) + additive slack.
	const L = 1 << 14
	for _, c := range []struct{ n, tf int }{{8, 2}, {16, 4}, {16, 8}, {32, 16}, {16, 12}} {
		faulty := adversary.SpreadFaulty(c.n, c.tf)
		res := testutil.RunCorrect(t, &testutil.Case{
			Name: "qc",
			N:    c.n, T: c.tf, L: L, Seed: 5,
			NewPeer: crashk.New,
			Faults:  testutil.CrashFaults(faulty, 0),
		})
		bound := 4*L/(c.n-c.tf) + 2*L/c.n + 256
		if res.Q > bound {
			t.Errorf("n=%d t=%d: Q = %d > bound %d", c.n, c.tf, res.Q, bound)
		}
	}
}

func TestFastVariantCorrect(t *testing.T) {
	faulty := adversary.SpreadFaulty(12, 5)
	for seed := int64(0); seed < 5; seed++ {
		res := testutil.RunCorrect(t, &testutil.Case{
			Name: "fast",
			N:    12, T: 5, L: 2048, Seed: seed,
			NewPeer: crashk.NewFast,
			Faults:  sim.Faults{Fates: adversary.NewCrashRandom(seed, faulty, 600)},
		})
		if res.Q > 4*2048/7+512 {
			t.Errorf("fast variant Q = %d unexpectedly high", res.Q)
		}
	}
}

func TestFastVariantNotSlower(t *testing.T) {
	// The Theorem 2.13 modification should not increase virtual time on
	// executions where responders are slow.
	faulty := adversary.SpreadFaulty(10, 4)
	run := func(factory func(sim.PeerID) sim.Peer) float64 {
		res := testutil.RunCorrect(t, &testutil.Case{
			Name: "time",
			N:    10, T: 4, L: 4096, Seed: 11,
			NewPeer: factory,
			Faults:  testutil.CrashFaults(faulty, 0),
			Delays:  adversary.NewRandom(11, 0.5, 1.0),
		})
		return res.Time
	}
	base := run(crashk.New)
	fast := run(crashk.NewFast)
	if fast > base*1.5 {
		t.Errorf("fast variant time %.2f much worse than base %.2f", fast, base)
	}
}

func TestNeverCrashFaulty(t *testing.T) {
	// Faulty-but-never-crashing peers must not break anything.
	faulty := adversary.SpreadFaulty(8, 3)
	testutil.RunCorrect(t, &testutil.Case{
		Name: "nevercrash",
		N:    8, T: 3, L: 1024, Seed: 3,
		NewPeer: crashk.New,
		Faults:  testutil.CrashFaults(faulty, -1),
	})
}

func TestSingleCrashMatchesDedicatedBound(t *testing.T) {
	// t = 1 in Algorithm 2: Q should stay ~2L/n like Algorithm 1.
	const n, L = 10, 10000
	res := testutil.RunCorrect(t, &testutil.Case{
		Name: "t1",
		N:    n, T: 1, L: L, Seed: 17,
		NewPeer: crashk.New,
		Faults:  testutil.CrashFaults([]sim.PeerID{3}, n*2),
	})
	if res.Q > 3*L/n+64 {
		t.Errorf("Q = %d, want ≈ 2L/n = %d", res.Q, 2*L/n)
	}
}

func TestMessageComplexityBounded(t *testing.T) {
	// Full-array broadcasts dominate: M = O(n²·L/b) messages.
	const n, L = 8, 4096
	res := testutil.RunCorrect(t, &testutil.Case{
		Name: "msgs",
		N:    n, T: 2, L: L, MsgBits: L / n, Seed: 23,
		NewPeer: crashk.New,
		Faults:  testutil.CrashFaults(adversary.SpreadFaulty(n, 2), 0),
	})
	bound := 6 * n * n * (L/(L/n) + 4) // generous constant
	if res.Msgs > bound {
		t.Errorf("M = %d > bound %d", res.Msgs, bound)
	}
}

func TestUnknownBitsDecayAcrossPhases(t *testing.T) {
	// Claim 4: at most (t/n)^{r−1}·L unknown bits at the start of phase
	// r. We verify indirectly: with immediate crashes of t peers, total
	// Q stays within the geometric-series bound — if decay failed, Q
	// would blow past it.
	const n, L = 16, 1 << 14
	for _, tf := range []int{2, 5, 8, 12} {
		faulty := adversary.SpreadFaulty(n, tf)
		res := testutil.RunCorrect(t, &testutil.Case{
			Name: "decay",
			N:    n, T: tf, L: L, Seed: int64(tf),
			NewPeer: crashk.New,
			Faults:  testutil.CrashFaults(faulty, 0),
		})
		// Geometric sum: L/n · 1/(1−β) plus hash-imbalance and
		// threshold slack.
		bound := int(float64(L)/float64(n)/(1-float64(tf)/float64(n))*2.0) + L/n + 512
		if res.Q > bound {
			t.Errorf("t=%d: Q = %d > geometric bound %d", tf, res.Q, bound)
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	c := &testutil.Case{
		Name: "det",
		N:    9, T: 3, L: 999, Seed: 77,
		NewPeer: crashk.New,
		Faults:  sim.Faults{Fates: adversary.NewCrashRandom(77, adversary.SpreadFaulty(9, 3), 200)},
	}
	a := testutil.RunCorrect(t, c).String()
	// Fresh delay policy with same seed for the second run.
	c.Delays = nil
	b := testutil.RunCorrect(t, c).String()
	if a != b {
		t.Errorf("nondeterministic:\n%s\n%s", a, b)
	}
}
