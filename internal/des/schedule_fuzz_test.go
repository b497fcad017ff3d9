package des_test

import (
	"testing"

	"repro/internal/adversary"
	"repro/internal/des"
	"repro/internal/protocols/committee"
	"repro/internal/protocols/crash1"
	"repro/internal/protocols/crashk"
	"repro/internal/sim"
)

// The schedule fuzzers let Go's coverage-guided fuzzer explore
// asynchronous delivery interleavings: the fuzz input is a byte script
// that the adversary.Scripted policy turns into per-message delays, plus
// crash points for the faulty peers. Any schedule that makes a protocol
// output wrongly, deadlock, or blow its query budget is a bug — the
// asynchronous model lets the adversary pick ANY finite delays.

// fuzzRun executes one protocol under a scripted schedule and fails on
// any safety or liveness violation.
func fuzzRun(t *testing.T, factory func(sim.PeerID) sim.Peer, n, tf, L int, script []byte, byz bool) {
	t.Helper()
	if len(script) == 0 {
		script = []byte{1}
	}
	faulty := adversary.SpreadFaulty(n, tf)
	var faults sim.Faults
	if tf > 0 {
		if byz {
			faults = sim.Faults{Fates: sim.Byzantines(faulty, adversary.NewSilent)}
		} else {
			// Crash points come from the script too.
			faults = sim.Faults{Fates: sim.Crashes(faulty, 0)}
			for i := range faults.Fates {
				faults.Fates[i].CrashAfter = int(script[i%len(script)]) * 2
			}
		}
	}
	res, err := des.New().Run(&sim.Spec{
		Config:  sim.Config{N: n, T: tf, L: L, MsgBits: 64, Seed: 7},
		NewPeer: factory,
		Delays:  adversary.NewScripted(script),
		Faults:  faults,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		// Print the script bytes verbatim: pasting them into a replay file
		// or a regression test (see crash1's deadlock_regression_test.go)
		// reproduces the failure without the fuzz corpus file.
		t.Fatalf("schedule broke the protocol: %v\nscript=%#v failures=%v", res, script, res.Failures)
	}
}

func FuzzCrashKSchedules(f *testing.F) {
	f.Add([]byte{0, 255, 7, 42})
	f.Add([]byte{1})
	f.Add([]byte{200, 200, 0, 0, 0, 13})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 {
			script = script[:4096]
		}
		fuzzRun(t, crashk.New, 5, 2, 96, script, false)
	})
}

func FuzzCrash1Schedules(f *testing.F) {
	f.Add([]byte{9, 8, 7})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 {
			script = script[:4096]
		}
		fuzzRun(t, crash1.New, 4, 1, 64, script, false)
	})
}

func FuzzCommitteeSchedules(f *testing.F) {
	f.Add([]byte{3, 1, 4, 1, 5})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 {
			script = script[:4096]
		}
		fuzzRun(t, committee.New, 7, 3, 70, script, true)
	})
}
