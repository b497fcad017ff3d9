package sim

import (
	"math/bits"
	"testing"

	"repro/internal/obs"
)

type allKinds struct{}

func (allKinds) OnEvent(*ObservedEvent) {}

type someKinds KindSet

func (someKinds) OnEvent(*ObservedEvent) {}
func (k someKinds) Kinds() KindSet       { return KindSet(k) }

// TestKindsOf: an observer reads every kind unless it names them, a tee
// reads the union of its observers' kinds, and a timeline its nine
// lifecycle kinds.
func TestKindsOf(t *testing.T) {
	tl := TimelineObserver(obs.NewTimeline())
	for _, tc := range []struct {
		name string
		o    Observer
		want KindSet
	}{
		{"nil", nil, 0},
		{"plain", allKinds{}, AllKinds},
		{"named", someKinds(KindSend | KindCrash), KindSend | KindCrash},
		{"timeline", tl, KindPhase | KindTerminate | KindCrash | KindRejoin | KindQFail |
			KindReconnect | KindQRetry | KindProofFail | KindFlap},
		{"tee of named", Tee(someKinds(KindSend), someKinds(KindQuery)), KindSend | KindQuery},
		{"tee with plain", Tee(someKinds(KindSend), allKinds{}), AllKinds},
	} {
		if got := KindsOf(tc.o); got != tc.want {
			t.Errorf("%s: KindsOf = %b, want %b", tc.name, got, tc.want)
		}
	}
	if n := bits.OnesCount16(uint16(KindsOf(tl))); n != 9 {
		t.Errorf("timeline reads %d kinds, want 9", n)
	}
	for i, name := range kindNames {
		if k := KindSet(1) << i; k.Name() != name || AllKinds&k == 0 {
			t.Errorf("kind bit %d: Name %q, want %q", i, k.Name(), name)
		}
	}
	if AllKinds>>len(kindNames) != 0 {
		t.Errorf("AllKinds %b has bits past the %d kinds", AllKinds, len(kindNames))
	}
}
