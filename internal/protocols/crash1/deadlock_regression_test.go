package crash1_test

import (
	"testing"

	"repro/internal/adversary"
	"repro/internal/des"
	"repro/internal/protocols/crash1"
	"repro/internal/sim"
)

// TestFuzzerFoundDeadlockRegression pins the schedule the coverage-guided
// fuzzer found (FuzzCrash1Schedules, input {2,0,2,0,'0','b'}): the victim
// crashes mid-broadcast so its block reaches only part of the network;
// one survivor completes phase 2 via the victim's late phase-1 push and
// terminates; before the fix it terminated silently, starving a lagging
// peer's stage-3 wait (terminated peers answer nothing) while a third
// peer waited on the lagging peer's phase-2 share — a three-way deadlock.
// The fix: every termination broadcasts the full array (Algorithm 2's
// Claim 2 mechanism), so one termination releases everyone.
func TestFuzzerFoundDeadlockRegression(t *testing.T) {
	script := []byte{2, 0, 2, 0, '0', 'b'}
	res, err := des.New().Run(&sim.Spec{
		Config:  sim.Config{N: 4, T: 1, L: 64, MsgBits: 64, Seed: 7},
		NewPeer: crash1.New,
		Delays:  adversary.NewScripted(script),
		Faults:  sim.Faults{Fates: sim.Crashes([]sim.PeerID{0}, 4)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlocked {
		t.Fatal("the fuzzer-found deadlock is back")
	}
	if !res.Correct {
		t.Fatalf("incorrect: %v", res)
	}
}
