package des_test

import (
	"math"
	"testing"

	"repro/internal/adversary"
	"repro/internal/des"
	"repro/internal/protocols/committee"
	"repro/internal/protocols/crashk"
	"repro/internal/sim"
)

// TestFixedDelaysYieldRoundStructure: under unit latencies with
// simultaneous starts, the asynchronous engine degenerates into the
// synchronous round model of the prior work — every event (and hence
// every termination) happens at an integral virtual time. This is the
// equivalence that lets experiment A4 present des+Fixed(1) as the
// "synchronous" column of Table 1.
func TestFixedDelaysYieldRoundStructure(t *testing.T) {
	for _, tc := range []struct {
		name    string
		factory func(sim.PeerID) sim.Peer
		faults  sim.Faults
		tf      int
	}{
		{"crashk", crashk.New, sim.Faults{Fates: sim.Crashes(adversary.SpreadFaulty(10, 3), 0)}, 3},
		{"committee", committee.New, sim.Faults{Fates: sim.Byzantines(adversary.SpreadFaulty(10, 4), committee.NewLiar)}, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := des.New().Run(&sim.Spec{
				Config:  sim.Config{N: 10, T: tc.tf, L: 500, MsgBits: 100, Seed: 31},
				NewPeer: tc.factory,
				Delays:  adversary.NewFixed(1.0),
				Faults:  tc.faults,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("incorrect: %v", res)
			}
			for _, ps := range res.PerPeer {
				if !ps.Honest || !ps.Terminated {
					continue
				}
				if _, frac := math.Modf(ps.TermTime); frac > 1e-9 && frac < 1-1e-9 {
					t.Errorf("peer %d terminated at non-integral time %v — round structure broken",
						ps.ID, ps.TermTime)
				}
			}
		})
	}
}
