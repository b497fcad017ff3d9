package netrt_test

import (
	"testing"

	"repro/internal/adversary"
	"repro/internal/netrt"
	"repro/internal/protocols/committee"
	"repro/internal/protocols/multicycle"
	"repro/internal/protocols/naive"
	"repro/internal/protocols/segproto"
	"repro/internal/protocols/twocycle"
	"repro/internal/sim"
)

// byzantine places tf Byzantine peers of one behavior among n.
func byzantine(n, tf int, behavior func(sim.PeerID, *sim.Knowledge) sim.Peer) []sim.Fate {
	return sim.Byzantines(adversary.SpreadFaulty(n, tf), behavior)
}

// TestTCPByzantineCommitteeLiars: committee under t lying members over
// real sockets. Every forged report is wire-encoded by its liar's client
// and decoded by each recipient's, and the honest peers still output X.
// The honest peers never need a liar to finish, so each of them first
// waits for every other peer's hello (helloFirst): no liar can miss the
// run, and a liar sends its report in the same Init as its hello.
func TestTCPByzantineCommitteeLiars(t *testing.T) {
	const n = 9
	byz := byzantine(n, 4, func(id sim.PeerID, k *sim.Knowledge) sim.Peer {
		return &helloFirst{Peer: committee.NewLiar(id, k)}
	})
	res, err := netrt.Runner(netrt.Net{})(&sim.Spec{
		Config: sim.Config{N: n, T: 4, L: 270, MsgBits: 256, Seed: 5},
		NewPeer: func(id sim.PeerID) sim.Peer {
			return &helloFirst{Peer: committee.New(id), wait: true}
		},
		Faults:   sim.Faults{Fates: byz},
		Deadline: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("incorrect: %v", res)
	}
	// A hello is one message to each of the n-1 others; the report is
	// more.
	for _, f := range byz {
		if sent := res.PerPeer[f.Peer].MsgsSent; sent <= n-1 {
			t.Errorf("liar %d sent %d messages, no more than its hello", f.Peer, sent)
		}
	}
}

// TestTCPByzantineTwoCycleLiars sizes twocycle out of its naive fallback
// and runs it under colluding liars over sockets: Q stays below L.
func TestTCPByzantineTwoCycleLiars(t *testing.T) {
	if testing.Short() {
		t.Skip("many sockets")
	}
	const n, tf, l = 128, 16, 1 << 11
	res, err := netrt.Runner(netrt.Net{})(&sim.Spec{
		Config:   sim.Config{N: n, T: tf, L: l, MsgBits: 128, Seed: 21},
		NewPeer:  twocycle.New,
		Faults:   sim.Faults{Fates: byzantine(n, tf, segproto.NewColludingLiar)},
		Deadline: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("incorrect: %v", res)
	}
	if res.Q >= l {
		t.Errorf("Q = %d fell back to naive", res.Q)
	}
}

// TestTCPByzantineBehaviors runs each Byzantine protocol against its
// attackers over sockets. The hub never waits for a Byzantine peer: the
// run ends when the honest ones are done, and the Byzantine ones are
// reported faulty but not crashed.
func TestTCPByzantineBehaviors(t *testing.T) {
	const n, tf = 16, 5
	cases := []struct {
		name     string
		newPeer  func(sim.PeerID) sim.Peer
		behavior func(sim.PeerID, *sim.Knowledge) sim.Peer
	}{
		{"committee/equivocate", committee.New, committee.NewEquivocator},
		{"twocycle/liar", twocycle.New, segproto.NewColludingLiar},
		{"twocycle/equivocate", twocycle.New, segproto.NewScatterLiar},
		{"multicycle/silent", multicycle.New, adversary.NewSilent},
		{"naive/spam", naive.New, adversary.NewSpammer(8, 512)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			byz := byzantine(n, tf, tc.behavior)
			res, err := netrt.Runner(netrt.Net{})(&sim.Spec{
				Config:   sim.Config{N: n, T: tf, L: 1024, MsgBits: 128, Seed: 7},
				NewPeer:  tc.newPeer,
				Faults:   sim.Faults{Fates: byz},
				Deadline: 20,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("incorrect: %v", res)
			}
			for _, f := range byz {
				if ps := res.PerPeer[f.Peer]; ps.Honest || ps.Crashed {
					t.Errorf("Byzantine peer %d reported honest=%v crashed=%v, want neither", f.Peer, ps.Honest, ps.Crashed)
				}
			}
		})
	}
}

// TestTCPByzantineValidation: Byzantine fates stay inside T together with
// the crash faults, and share no peer with them.
func TestTCPByzantineValidation(t *testing.T) {
	base := func() *sim.Spec {
		return &sim.Spec{Config: sim.Config{N: 4, T: 1, L: 64, MsgBits: 64}, NewPeer: naive.New}
	}
	cases := map[string]func(*sim.Spec){
		"over t with an absent peer": func(s *sim.Spec) {
			s.Faults.Fates = append(byzantine(4, 1, adversary.NewSilent), sim.Crashes([]sim.PeerID{2}, 0)...)
		},
		"also absent": func(s *sim.Spec) {
			s.Config.T = 2
			s.Faults.Fates = append(sim.Byzantines([]sim.PeerID{2}, adversary.NewSilent), sim.Crashes([]sim.PeerID{2}, 0)...)
		},
		"out of range": func(s *sim.Spec) {
			s.Faults.Fates = sim.Byzantines([]sim.PeerID{4}, adversary.NewSilent)
		},
	}
	for name, mutate := range cases {
		spec := base()
		mutate(spec)
		if _, err := netrt.Runner(netrt.Net{})(spec); err == nil {
			t.Errorf("%s: invalid config accepted", name)
		}
	}
}
