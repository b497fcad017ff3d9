// Package testutil provides the shared execution harness for protocol
// tests: spec construction, grid running over seeds and fault patterns,
// and correctness/complexity assertions against sim.Result.
package testutil

import (
	"testing"

	"repro/internal/adversary"
	"repro/internal/des"
	"repro/internal/sim"
)

// Case describes one execution to run under the des runtime.
type Case struct {
	Name    string
	N, T, L int
	MsgBits int
	Seed    int64
	NewPeer func(sim.PeerID) sim.Peer
	Faults  sim.Faults
	Delays  sim.DelayPolicy
}

// Spec materializes the sim.Spec for the case, filling defaults: message
// size L/N (the paper's natural block size) floored at 64, and the
// seeded random-unit delay policy.
func (c *Case) Spec() *sim.Spec {
	msgBits := c.MsgBits
	if msgBits == 0 {
		msgBits = c.L / c.N
		if msgBits < 64 {
			msgBits = 64
		}
	}
	delays := c.Delays
	if delays == nil {
		delays = adversary.NewRandomUnit(c.Seed + 7)
	}
	return &sim.Spec{
		Config:  sim.Config{N: c.N, T: c.T, L: c.L, MsgBits: msgBits, Seed: c.Seed},
		NewPeer: c.NewPeer,
		Delays:  delays,
		Faults:  c.Faults,
	}
}

// Run executes the case on the des runtime and fails the test on spec
// errors.
func Run(t *testing.T, c *Case) *sim.Result {
	t.Helper()
	res, err := des.New().Run(c.Spec())
	if err != nil {
		t.Fatalf("%s: run failed: %v", c.Name, err)
	}
	return res
}

// RunCorrect executes the case and requires a fully correct outcome.
func RunCorrect(t *testing.T, c *Case) *sim.Result {
	t.Helper()
	res := Run(t, c)
	if !res.Correct {
		t.Fatalf("%s: incorrect execution: %v", c.Name, res)
	}
	return res
}

// CrashFaults crashes the given peers after the given number of actions;
// below 0 they never crash, but are still faulty.
func CrashFaults(peers []sim.PeerID, after int) sim.Faults {
	return sim.Faults{Fates: sim.Crashes(peers, after)}
}

// ByzFaults runs the given Byzantine behavior factory at peers.
func ByzFaults(peers []sim.PeerID, factory func(sim.PeerID, *sim.Knowledge) sim.Peer) sim.Faults {
	return sim.Faults{Fates: sim.Byzantines(peers, factory)}
}

// CrashFates returns a labeled palette of crash schedules for grid tests:
// immediate silence, random mid-execution points (seeded), and a
// mid-broadcast point that interrupts multi-send operations.
func CrashFates(seed int64, peers []sim.PeerID, n int) map[string][]sim.Fate {
	return map[string][]sim.Fate{
		"immediate":    sim.Crashes(peers, 0),
		"midbroadcast": sim.Crashes(peers, n/2),
		"random":       adversary.NewCrashRandom(seed, peers, 50*n),
		"late":         adversary.NewCrashRandom(seed+1, peers, 5000*n),
	}
}

// RequireQAtMost asserts the query complexity bound.
func RequireQAtMost(t *testing.T, res *sim.Result, bound int, label string) {
	t.Helper()
	if res.Q > bound {
		t.Errorf("%s: Q = %d exceeds bound %d", label, res.Q, bound)
	}
}
