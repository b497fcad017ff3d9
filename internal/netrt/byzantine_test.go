package netrt_test

import (
	"testing"
	"time"

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
func TestTCPByzantineCommitteeLiars(t *testing.T) {
	byz := byzantine(9, 4, committee.NewLiar)
	res, err := netrt.Run(netrt.Config{
		N: 9, T: 4, L: 270, MsgBits: 256, Seed: 5,
		NewPeer: committee.New,
		Fates:   byz,
		Timeout: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("incorrect: %v", res)
	}
	for _, f := range byz {
		if res.PerPeer[f.Peer].MsgsSent == 0 {
			t.Errorf("liar %d sent nothing", f.Peer)
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
	res, err := netrt.Run(netrt.Config{
		N: n, T: tf, L: l, MsgBits: 128, Seed: 21,
		NewPeer: twocycle.New,
		Fates:   byzantine(n, tf, segproto.NewColludingLiar),
		Timeout: 60 * time.Second,
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
			res, err := netrt.Run(netrt.Config{
				N: n, T: tf, L: 1024, MsgBits: 128, Seed: 7,
				NewPeer: tc.newPeer,
				Fates:   byz,
				Timeout: 20 * time.Second,
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
	base := func() netrt.Config {
		return netrt.Config{N: 4, T: 1, L: 64, MsgBits: 64, NewPeer: naive.New}
	}
	cases := map[string]func(*netrt.Config){
		"over t with an absent peer": func(c *netrt.Config) {
			c.Fates = append(byzantine(4, 1, adversary.NewSilent), sim.Crashes([]sim.PeerID{2}, 0)...)
		},
		"also absent": func(c *netrt.Config) {
			c.T = 2
			c.Fates = append(sim.Byzantines([]sim.PeerID{2}, adversary.NewSilent), sim.Crashes([]sim.PeerID{2}, 0)...)
		},
		"out of range": func(c *netrt.Config) {
			c.Fates = sim.Byzantines([]sim.PeerID{4}, adversary.NewSilent)
		},
	}
	for name, mutate := range cases {
		cfg := base()
		mutate(&cfg)
		if _, err := netrt.Run(cfg); err == nil {
			t.Errorf("%s: invalid config accepted", name)
		}
	}
}
