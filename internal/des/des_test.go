package des_test

import (
	"testing"

	"repro/internal/adversary"
	"repro/internal/des"
	"repro/internal/protocols/naive"
	"repro/internal/sim"
)

func naiveSpec(seed int64) *sim.Spec {
	return &sim.Spec{
		Config:  sim.Config{N: 8, T: 2, L: 256, MsgBits: 64, Seed: seed},
		NewPeer: naive.New,
		Delays:  adversary.NewRandomUnit(seed),
	}
}

func TestNaiveAllHonest(t *testing.T) {
	res, err := des.New().Run(naiveSpec(1))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Correct {
		t.Fatalf("expected correct run, got %v", res)
	}
	if res.Q != 256 {
		t.Errorf("naive Q = %d, want L = 256", res.Q)
	}
	if res.Msgs != 0 {
		t.Errorf("naive sent %d messages, want 0", res.Msgs)
	}
}

func TestNaiveSurvivesByzantineMajority(t *testing.T) {
	spec := naiveSpec(2)
	spec.Config.T = 5 // majority faulty
	spec.Faults = sim.Faults{Fates: sim.Byzantines(adversary.FaultyPeers(5), adversary.NewSpammer(10, 128))}
	res, err := des.New().Run(spec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Correct {
		t.Fatalf("naive must tolerate Byzantine majority: %v", res)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *sim.Result {
		res, err := des.New().Run(naiveSpec(42))
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	a, b := run(), run()
	if a.String() != b.String() {
		t.Fatalf("same seed produced different executions:\n%v\n%v", a, b)
	}
	if a.Time != b.Time || a.Events != b.Events {
		t.Fatalf("nondeterministic time/events: %v vs %v", a, b)
	}
}

func TestCrashBeforeStart(t *testing.T) {
	spec := naiveSpec(3)
	spec.Faults = sim.Faults{Fates: sim.Crashes([]sim.PeerID{0, 1}, 0)}
	res, err := des.New().Run(spec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Correct {
		t.Fatalf("naive must tolerate crashes: %v", res)
	}
	if !res.PerPeer[0].Crashed || !res.PerPeer[1].Crashed {
		t.Errorf("peers 0,1 should have crashed: %+v", res.PerPeer[:2])
	}
	if res.HonestCount() != 6 {
		t.Errorf("honest count = %d, want 6", res.HonestCount())
	}
}

func TestSpecValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*sim.Spec)
	}{
		{"too few peers", func(s *sim.Spec) { s.Config.N = 1 }},
		{"negative t", func(s *sim.Spec) { s.Config.T = -1 }},
		{"t >= n", func(s *sim.Spec) { s.Config.T = 8 }},
		{"zero L", func(s *sim.Spec) { s.Config.L = 0 }},
		{"zero msg bits", func(s *sim.Spec) { s.Config.MsgBits = 0 }},
		{"nil factory", func(s *sim.Spec) { s.NewPeer = nil }},
		{"nil delays", func(s *sim.Spec) { s.Delays = nil }},
		{"too many faulty", func(s *sim.Spec) {
			s.Faults = sim.Faults{Fates: sim.Crashes([]sim.PeerID{0, 1, 2}, 0)}
		}},
		{"duplicate faulty", func(s *sim.Spec) {
			s.Config.T = 3
			s.Faults = sim.Faults{Fates: sim.Crashes([]sim.PeerID{0, 0}, 0)}
		}},
		{"faulty out of range", func(s *sim.Spec) {
			s.Faults = sim.Faults{Fates: sim.Crashes([]sim.PeerID{99}, 0)}
		}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			spec := naiveSpec(1)
			tc.mutate(spec)
			if _, err := des.New().Run(spec); err == nil {
				t.Fatal("expected validation error, got nil")
			}
		})
	}
}

// deadlockPeer waits for a message that never arrives.
type deadlockPeer struct{}

func (deadlockPeer) Init(sim.Context)                  {}
func (deadlockPeer) OnMessage(sim.PeerID, sim.Message) {}
func (deadlockPeer) OnQueryReply(sim.QueryReply)       {}

func TestDeadlockDetection(t *testing.T) {
	spec := naiveSpec(4)
	spec.NewPeer = func(sim.PeerID) sim.Peer { return deadlockPeer{} }
	res, err := des.New().Run(spec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Deadlocked {
		t.Fatalf("expected deadlock detection, got %v", res)
	}
	if res.Correct {
		t.Fatal("deadlocked run must not be correct")
	}
}
