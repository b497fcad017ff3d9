package crash1_test

import (
	"testing"
	"testing/quick"

	"repro/internal/adversary"
	"repro/internal/des"
	"repro/internal/protocols/crash1"
	"repro/internal/sim"
)

// TestQuickRandomConfigs drives Algorithm 1 through randomized
// (n, L, victim, crash point, delays) configurations.
func TestQuickRandomConfigs(t *testing.T) {
	f := func(seed int64, nU, victimU uint8, lU uint16, pointU uint8) bool {
		n := int(nU)%10 + 2 // 2..11
		L := int(lU)%3000 + 1
		victim := sim.PeerID(int(victimU) % n)
		point := int(pointU) % (6 * n)
		res, err := des.New().Run(&sim.Spec{
			Config:  sim.Config{N: n, T: 1, L: L, MsgBits: 64, Seed: seed},
			NewPeer: crash1.New,
			Delays:  adversary.NewRandomUnit(seed + 1),
			Faults:  sim.Faults{Fates: sim.Crashes([]sim.PeerID{victim}, point)},
		})
		if err != nil || !res.Correct {
			t.Logf("n=%d L=%d victim=%d point=%d seed=%d: err=%v res=%v",
				n, L, victim, point, seed, err, res)
			return false
		}
		// Theorem 2.3 budget: own block + a (n−1)-th of the missing
		// peer's block, all ceilinged, plus slack for tiny-L rounding.
		block := (L + n - 1) / n
		bound := block + (block+n-2)/(n-1) + n + 4
		if n == 2 {
			bound = L + 4 // survivor may need everything
		}
		if res.Q > bound {
			t.Logf("n=%d L=%d: Q=%d > %d", n, L, res.Q, bound)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestQuickScheduleScripts drives Algorithm 1 under scripted schedules —
// the deterministic cousin of the coverage-guided schedule fuzzer.
func TestQuickScheduleScripts(t *testing.T) {
	f := func(script []byte, nU uint8, pointU uint8) bool {
		n := int(nU)%6 + 3 // 3..8
		point := int(pointU) % (4 * n)
		res, err := des.New().Run(&sim.Spec{
			Config:  sim.Config{N: n, T: 1, L: 120, MsgBits: 64, Seed: 5},
			NewPeer: crash1.New,
			Delays:  adversary.NewScripted(script),
			Faults:  sim.Faults{Fates: sim.Crashes([]sim.PeerID{0}, point)},
		})
		if err != nil || !res.Correct {
			t.Logf("n=%d point=%d script=%v: err=%v res=%v", n, point, script, err, res)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
