package twocycle_test

import (
	"fmt"
	"testing"

	"repro/internal/adversary"
	"repro/internal/protocols/segproto"
	"repro/internal/protocols/twocycle"
	"repro/internal/sim"
	"repro/internal/testutil"
)

// sized returns a configuration with enough peers that the parameter
// derivation leaves the naive regime.
func sized(beta float64) (n, tf, L int) {
	n = 128
	tf = int(beta * float64(n))
	L = 1 << 14
	return
}

func TestParamsDerivation(t *testing.T) {
	tests := []struct {
		n, tf, L  int
		wantNaive bool
	}{
		{8, 3, 1024, true}, // gap too small for segments
		{128, 32, 1 << 14, false},
		{128, 63, 1 << 14, true}, // gap = 2: degenerate
		{256, 64, 1 << 16, false},
		{64, 40, 4096, true}, // β > 1/2
	}
	for _, tc := range tests {
		p := segproto.Derive(tc.n, tc.tf, tc.L)
		if p.Naive != tc.wantNaive {
			t.Errorf("Derive(%d,%d,%d): naive=%v want %v (m=%d)",
				tc.n, tc.tf, tc.L, p.Naive, tc.wantNaive, p.Segments)
		}
		if !p.Naive {
			if p.Segments < 2 || p.Segments > tc.L {
				t.Errorf("Derive(%d,%d,%d): bad m=%d", tc.n, tc.tf, tc.L, p.Segments)
			}
			if k := p.Threshold(p.Segments); k < 1 || k > p.Gap {
				t.Errorf("Derive(%d,%d,%d): bad k=%d (gap=%d)", tc.n, tc.tf, tc.L, k, p.Gap)
			}
		}
	}
}

func TestNoFaults(t *testing.T) {
	n, tf, L := sized(0.25)
	res := testutil.RunCorrect(t, &testutil.Case{
		Name: "nofaults",
		N:    n, T: tf, L: L, Seed: 1,
		NewPeer: twocycle.New,
	})
	if res.Q >= L/2 {
		t.Errorf("Q = %d not sublinear in L = %d", res.Q, L)
	}
}

func TestByzantineAttacks(t *testing.T) {
	attacks := map[string]func(sim.PeerID, *sim.Knowledge) sim.Peer{
		"silent":    adversary.NewSilent,
		"spammer":   adversary.NewSpammer(4, 512),
		"colluding": segproto.NewColludingLiar,
		"scatter":   segproto.NewScatterLiar,
	}
	for _, beta := range []float64{0.1, 0.25, 0.4} {
		n, tf, L := sized(beta)
		faulty := adversary.SpreadFaulty(n, tf)
		sublinear := !segproto.Derive(n, tf, L).Naive
		for name, factory := range attacks {
			for seed := int64(0); seed < 2; seed++ {
				label := fmt.Sprintf("beta=%.2f %s seed=%d", beta, name, seed)
				t.Run(label, func(t *testing.T) {
					res := testutil.RunCorrect(t, &testutil.Case{
						Name: label,
						N:    n, T: tf, L: L, Seed: seed,
						NewPeer: twocycle.New,
						Faults:  testutil.ByzFaults(faulty, factory),
					})
					// Close to β = 1/2 the derived gap degenerates and
					// the protocol legitimately falls back to naive —
					// "efficient when β is not too close to 1/2".
					if sublinear && res.Q >= L {
						t.Errorf("%s: Q = %d reached naive cost", label, res.Q)
					}
				})
			}
		}
	}
}

func TestColludingLiarInflatesCostNotCorrectness(t *testing.T) {
	// The colluding lie becomes k-frequent and must be paid for in
	// determination queries, but never changes any output.
	n, tf, L := sized(0.3)
	faulty := adversary.SpreadFaulty(n, tf)
	clean := testutil.RunCorrect(t, &testutil.Case{
		Name: "clean",
		N:    n, T: tf, L: L, Seed: 9,
		NewPeer: twocycle.New,
		Faults:  testutil.ByzFaults(faulty, adversary.NewSilent),
	})
	attacked := testutil.RunCorrect(t, &testutil.Case{
		Name: "attacked",
		N:    n, T: tf, L: L, Seed: 9,
		NewPeer: twocycle.New,
		Faults:  testutil.ByzFaults(faulty, segproto.NewColludingLiar),
	})
	if attacked.Q < clean.Q {
		t.Logf("note: attack did not raise Q (clean %d, attacked %d)", clean.Q, attacked.Q)
	}
	if attacked.Q > clean.Q+n {
		t.Errorf("attack raised Q by more than one bit per liar: %d -> %d", clean.Q, attacked.Q)
	}
}

func TestNaiveFallbackRegime(t *testing.T) {
	// Small n: the derivation degenerates and every peer queries all.
	res := testutil.RunCorrect(t, &testutil.Case{
		Name: "fallback",
		N:    8, T: 3, L: 512, Seed: 4,
		NewPeer: twocycle.New,
		Faults:  testutil.ByzFaults(adversary.SpreadFaulty(8, 3), adversary.NewSilent),
	})
	if res.Q != 512 {
		t.Errorf("Q = %d, want naive fallback 512", res.Q)
	}
}

func TestForcedParamsAblation(t *testing.T) {
	// Oversized k forces empty candidate sets; the protocol must stay
	// correct by direct-querying those segments.
	n, tf, L := sized(0.2)
	faulty := adversary.SpreadFaulty(n, tf)
	res := testutil.RunCorrect(t, &testutil.Case{
		Name: "forced",
		N:    n, T: tf, L: L, Seed: 6,
		NewPeer: twocycle.NewWithOptions(twocycle.Options{ForceSegments: 8, ForceThreshold: n}),
		Faults:  testutil.ByzFaults(faulty, adversary.NewSilent),
	})
	if res.Q < L-L/8 {
		t.Errorf("expected near-naive Q under impossible threshold, got %d", res.Q)
	}
}

func TestQueryBalance(t *testing.T) {
	// The protocol is query-balanced: max/avg should stay small.
	n, tf, L := sized(0.25)
	res := testutil.RunCorrect(t, &testutil.Case{
		Name: "balance",
		N:    n, T: tf, L: L, Seed: 12,
		NewPeer: twocycle.New,
	})
	if avg := res.AvgQ(); float64(res.Q) > 3*avg+64 {
		t.Errorf("unbalanced: max Q = %d, avg = %.1f", res.Q, avg)
	}
}
