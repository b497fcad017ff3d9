package download

import (
	"testing"

	"repro/internal/sim"
)

// TestFatesOneLowering: for every behavior, the options lower once to the
// spec's fates, which des and tcp both run (one spec, two runners): the
// behavior's faulty peers, then the churn schedule. A crash never acts and
// never rejoins, so on sockets it never connects.
func TestFatesOneLowering(t *testing.T) {
	churn := ChurnPeer{Peer: 7, CrashAfter: 2, Downtime: -1}
	for _, b := range Behaviors() {
		opts := Options{Protocol: Naive, N: 8, T: 3, L: 256, Seed: 3, Behavior: b,
			Churn: []ChurnPeer{churn}}
		if b != NoFaults {
			opts.Faulty = 2
		}
		r, err := opts.validate()
		if err != nil {
			t.Fatalf("%q: %v", b, err)
		}
		fates := buildSpec(opts, r).Faults.Fates
		faulty, last := fates[:len(fates)-1], fates[len(fates)-1]
		if want := (sim.Fate{Peer: 7, CrashAfter: 2, Downtime: -1}); last.Peer != want.Peer ||
			last.CrashAfter != want.CrashAfter || last.Downtime != want.Downtime || last.Byzantine != nil {
			t.Errorf("%q: churn fate %+v, want %+v", b, last, want)
		}
		if len(faulty) != opts.Faulty {
			t.Fatalf("%q: %d behavior fates, want %d", b, len(faulty), opts.Faulty)
		}
		for _, f := range faulty {
			switch b {
			case CrashImmediate:
				if f.CrashAfter != 0 || f.Downtime != -1 || f.Byzantine != nil || !f.Absent() {
					t.Errorf("%q: fate %+v, want Fate{CrashAfter: 0, Downtime: -1}", b, f)
				}
			case CrashRandom:
				if f.CrashAfter < 0 || f.CrashAfter > 100*opts.N || f.Downtime != -1 || f.Byzantine != nil {
					t.Errorf("%q: fate %+v, want a crash point in [0, 100N] for good", b, f)
				}
			default:
				if f.Byzantine == nil || f.CrashAfter >= 0 || f.Downtime >= 0 {
					t.Errorf("%q: fate %+v, want a Byzantine behavior that never crashes", b, f)
				}
			}
		}
	}
}
