package crashk_test

import (
	"testing"
	"testing/quick"

	"repro/internal/adversary"
	"repro/internal/des"
	"repro/internal/protocols/crashk"
	"repro/internal/sim"
)

// TestQuickRandomConfigs drives Algorithm 2 through randomized
// (n, t, L, crash pattern, delays) configurations: every execution must
// be correct and respect the O(L/(n−t)) query budget.
func TestQuickRandomConfigs(t *testing.T) {
	f := func(seed int64, nU, tU uint8, lU uint16, fast bool) bool {
		n := int(nU)%14 + 2   // 2..15
		tf := int(tU) % n     // 0..n-1
		L := int(lU)%4000 + 1 // 1..4000
		factory := crashk.New
		if fast {
			factory = crashk.NewFast
		}
		var faults sim.Faults
		if tf > 0 {
			faulty := adversary.SpreadFaulty(n, tf)
			faults = sim.Faults{Fates: adversary.NewCrashRandom(seed, faulty, 30*n)}
		}
		res, err := des.New().Run(&sim.Spec{
			Config:  sim.Config{N: n, T: tf, L: L, MsgBits: 64, Seed: seed},
			NewPeer: factory,
			Delays:  adversary.NewRandomUnit(seed + 1),
			Faults:  faults,
		})
		if err != nil || !res.Correct {
			t.Logf("n=%d t=%d L=%d seed=%d fast=%v: err=%v res=%v", n, tf, L, seed, fast, err, res)
			return false
		}
		// Generous but shape-bearing budget: geometric series + final
		// threshold + per-phase hash imbalance.
		bound := 4*L/(n-tf) + 2*(L/n+1) + 64*n
		if res.Q > bound {
			t.Logf("n=%d t=%d L=%d: Q=%d > %d", n, tf, L, res.Q, bound)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
