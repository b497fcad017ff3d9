package dst

import (
	"fmt"
	"testing"
)

// TestCheckHardenedPinnedReplay pins the hardened re-check of the
// committed committee-weak equivocation. The re-run keeps the replay's
// adversary but not its schedule, and under des's seeded schedule the
// lone equivocator flips no output: the first rung passes its audit, no
// violation is detected and the run ends correct, at a hardened Q of 2
// bits a peer (L = 1 queried, plus 1 audit bit).
func TestCheckHardenedPinnedReplay(t *testing.T) {
	r, err := Load("testdata/replays/committee-weak-equivocation.dsr")
	if err != nil {
		t.Fatal(err)
	}
	h, err := CheckHardened(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("detected=%v corrected=%v final-correct=%v ladder=%v Q=%d",
		h.Detected, h.Corrected, h.Result.Correct, h.Escalations(), h.Result.Q)
	const want = "detected=false corrected=false final-correct=true ladder=[committee-weak] Q=2"
	if got != want {
		t.Fatalf("hardened re-check: %s, want %s", got, want)
	}
}
