package crash1_test

import (
	"fmt"
	"testing"

	"repro/internal/adversary"
	"repro/internal/protocols/crash1"
	"repro/internal/sim"
	"repro/internal/testutil"
)

func TestNoCrash(t *testing.T) {
	for _, n := range []int{2, 3, 4, 9, 16} {
		for _, L := range []int{1, 8, 100, 4096} {
			label := fmt.Sprintf("n=%d L=%d", n, L)
			res := testutil.RunCorrect(t, &testutil.Case{
				Name: label,
				N:    n, T: 1, L: L, Seed: int64(n + L),
				NewPeer: crash1.New,
			})
			if res.Q > 3*(L/n+1)+4 {
				t.Errorf("%s: Q = %d too high for failure-free run", label, res.Q)
			}
		}
	}
}

func TestEveryCrashVictim(t *testing.T) {
	// Crash each peer in turn, at several points in its execution.
	const n, L = 6, 600
	for victim := 0; victim < n; victim++ {
		for _, point := range []int{0, 1, n / 2, n - 2, 3 * n, 100 * n} {
			label := fmt.Sprintf("victim=%d point=%d", victim, point)
			t.Run(label, func(t *testing.T) {
				testutil.RunCorrect(t, &testutil.Case{
					Name: label,
					N:    n, T: 1, L: L, Seed: int64(victim*31 + point),
					NewPeer: crash1.New,
					Faults: testutil.CrashFaults(
						[]sim.PeerID{sim.PeerID(victim)},
						point,
					),
				})
			})
		}
	}
}

func TestMidBroadcastCrash(t *testing.T) {
	// Crash exactly between the sends of the phase-1 push so that some
	// peers hear the victim and others do not — the split-brain scenario
	// Lemma 2.1's Overlap argument resolves.
	const n, L = 8, 1024
	for point := 1; point < n-1; point++ {
		label := fmt.Sprintf("point=%d", point)
		t.Run(label, func(t *testing.T) {
			testutil.RunCorrect(t, &testutil.Case{
				Name: label,
				N:    n, T: 1, L: L, Seed: int64(point),
				NewPeer: crash1.New,
				Faults: testutil.CrashFaults(
					[]sim.PeerID{2},
					// Victim's actions: start delivery + 1 query, then
					// the broadcast sends; offset into the broadcast.
					2+point,
				),
			})
		})
	}
}

func TestTwoPeers(t *testing.T) {
	// n=2, t=1: the survivor must end up querying everything.
	res := testutil.RunCorrect(t, &testutil.Case{
		Name: "n2",
		N:    2, T: 1, L: 128, Seed: 1,
		NewPeer: crash1.New,
		Faults:  testutil.CrashFaults([]sim.PeerID{0}, 0),
	})
	if res.Q != 128 {
		t.Errorf("survivor Q = %d, want full input 128", res.Q)
	}
}

func TestQueryBound(t *testing.T) {
	// Theorem 2.3: Q = L/n + L/(n(n−1)) + O(1) — roughly (L/n)(1+1/n).
	const n, L = 10, 100000
	for seed := int64(0); seed < 4; seed++ {
		res := testutil.RunCorrect(t, &testutil.Case{
			Name: "bound",
			N:    n, T: 1, L: L, Seed: seed,
			NewPeer: crash1.New,
			Faults:  sim.Faults{Fates: adversary.NewCrashRandom(seed, []sim.PeerID{5}, 4*n)},
		})
		bound := L/n + L/(n*(n-1)) + n + 2
		if res.Q > bound {
			t.Errorf("Q = %d > theorem bound %d", res.Q, bound)
		}
	}
}

func TestSlowPeerNotCrashed(t *testing.T) {
	// A very slow (but alive) peer: others proceed via me-neither route;
	// slow peer must still terminate correctly.
	slow := []sim.PeerID{4}
	res := testutil.RunCorrect(t, &testutil.Case{
		Name: "slow",
		N:    6, T: 1, L: 300, Seed: 9,
		NewPeer: crash1.New,
		Delays:  adversary.NewTargetedSlow(adversary.NewRandomUnit(9), slow, 500),
	})
	if !res.PerPeer[4].Terminated {
		t.Error("slow peer did not terminate")
	}
}
