package netrt_test

import (
	"fmt"
	"testing"

	"repro/internal/adversary"
	"repro/internal/netrt"
	"repro/internal/protocols/committee"
	"repro/internal/protocols/crash1"
	"repro/internal/protocols/crashk"
	"repro/internal/protocols/naive"
	"repro/internal/protocols/twocycle"
	"repro/internal/sim"
)

func TestNaiveOverTCP(t *testing.T) {
	res, err := netrt.Runner(netrt.Net{})(&sim.Spec{
		Config:   sim.Config{N: 4, T: 0, L: 512, MsgBits: 128, Seed: 1},
		NewPeer:  naive.New,
		Deadline: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("incorrect: %v", res)
	}
	if res.Q != 512 {
		t.Errorf("Q = %d", res.Q)
	}
}

func TestCrashKOverTCPWithAbsentPeers(t *testing.T) {
	// Three peers never connect: the n−t waiting rules must keep the
	// run live over real sockets.
	res, err := netrt.Runner(netrt.Net{})(&sim.Spec{
		Config:   sim.Config{N: 8, T: 3, L: 2048, MsgBits: 256, Seed: 2},
		NewPeer:  crashk.New,
		Faults:   sim.Faults{Fates: sim.Crashes([]sim.PeerID{1, 4, 6}, 0)},
		Deadline: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("incorrect: %v", res)
	}
	for _, id := range []sim.PeerID{1, 4, 6} {
		if res.PerPeer[id].Terminated {
			t.Errorf("absent peer %d terminated", id)
		}
	}
	if res.Q >= 2048 {
		t.Errorf("Q = %d not sublinear", res.Q)
	}
}

func TestCrash1OverTCP(t *testing.T) {
	res, err := netrt.Runner(netrt.Net{})(&sim.Spec{
		Config:   sim.Config{N: 6, T: 1, L: 600, MsgBits: 128, Seed: 3},
		NewPeer:  crash1.New,
		Faults:   sim.Faults{Fates: sim.Crashes([]sim.PeerID{2}, 0)},
		Deadline: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("incorrect: %v", res)
	}
}

func TestCommitteeOverTCP(t *testing.T) {
	res, err := netrt.Runner(netrt.Net{})(&sim.Spec{
		Config:   sim.Config{N: 9, T: 2, L: 270, MsgBits: 256, Seed: 4},
		NewPeer:  committee.New,
		Deadline: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("incorrect: %v", res)
	}
}

func TestTwoCycleOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("many sockets")
	}
	// Sized into the non-naive regime; all peers honest-but-concurrent.
	res, err := netrt.Runner(netrt.Net{})(&sim.Spec{
		Config:   sim.Config{N: 128, T: 16, L: 1 << 12, MsgBits: 256, Seed: 5},
		NewPeer:  twocycle.New,
		Deadline: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("incorrect: %v", res)
	}
	if res.Q >= 1<<12 {
		t.Errorf("Q = %d fell back to naive", res.Q)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []*sim.Spec{
		{Config: sim.Config{N: 1, T: 0, L: 8, MsgBits: 64}, NewPeer: naive.New},
		{Config: sim.Config{N: 4, T: 1, L: 8, MsgBits: 64}},
		{Config: sim.Config{N: 4, T: 1, L: 8, MsgBits: 64}, NewPeer: naive.New,
			Faults: sim.Faults{Fates: sim.Crashes([]sim.PeerID{0, 1}, 0)}},
	}
	for i, spec := range bad {
		if _, err := netrt.Runner(netrt.Net{})(spec); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestManySeedsSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock heavy")
	}
	for seed := int64(10); seed < 13; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			res, err := netrt.Runner(netrt.Net{})(&sim.Spec{
				Config:   sim.Config{N: 6, T: 2, L: 1024, MsgBits: 128, Seed: seed},
				NewPeer:  crashk.NewFast,
				Faults:   sim.Faults{Fates: sim.Crashes([]sim.PeerID{0, 3}, 0)},
				Deadline: 20,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("incorrect: %v", res)
			}
		})
	}
}

// TestChurnCrashMidRun: two peers crash mid-run and never rejoin (a fate
// with a negative downtime, as download runs crash-random on every
// runtime). The survivors must still complete (crashk tolerates it),
// and the crashed peers are reported crashed and faulty rather than
// failing the run.
//
// Both crash points lie in crashk's Init, whose actions are init, the
// phase-1 query and one Req1 send to each other peer (peer 1 crashes on
// its second send, peer 5 on its fifth). No honest crashk peer waits for
// a given other peer, and sockets start no peer before another, so the
// survivors may finish before a crashing peer's client connects; such a
// peer ran no action and is reported crashed, as an absent one is.
func TestChurnCrashMidRun(t *testing.T) {
	crashed := []sim.Fate{
		{Peer: 1, CrashAfter: 3, Downtime: -1},
		{Peer: 5, CrashAfter: 6, Downtime: -1},
	}
	res, err := netrt.Runner(netrt.Net{})(&sim.Spec{
		Config:   sim.Config{N: 8, T: 3, L: 2048, MsgBits: 256, Seed: 6},
		NewPeer:  crashk.New,
		Faults:   sim.Faults{Fates: crashed},
		Deadline: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("incorrect: %v", res)
	}
	for _, cp := range crashed {
		if ps := res.PerPeer[cp.Peer]; ps.Honest || !ps.Crashed || ps.Rejoined {
			t.Errorf("crashed peer %d: honest=%v crashed=%v rejoined=%v, want faulty, crashed, not rejoined",
				cp.Peer, ps.Honest, ps.Crashed, ps.Rejoined)
		}
	}
}

// TestChurnCrashAfterHello: what a client sent before its crash point
// reaches the hub. Every peer broadcasts a hello first, and an honest
// peer starts crashk only once it holds every other peer's hello, so a
// crashed peer's lost hello would stall the run; both crash points come
// after the hello, in crashk's Init (peer 1 on its second Req1 send, peer
// 5 on its fifth).
func TestChurnCrashAfterHello(t *testing.T) {
	crashed := []sim.Fate{
		{Peer: 1, CrashAfter: 10, Downtime: -1},
		{Peer: 5, CrashAfter: 13, Downtime: -1},
	}
	res, err := netrt.Runner(netrt.Net{})(&sim.Spec{
		Config: sim.Config{N: 8, T: 3, L: 2048, MsgBits: 256, Seed: 6},
		NewPeer: func(id sim.PeerID) sim.Peer {
			return &helloFirst{Peer: crashk.New(id), wait: id != 1 && id != 5}
		},
		Faults:   sim.Faults{Fates: crashed},
		Deadline: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("incorrect: %v", res)
	}
	for _, cp := range crashed {
		if ps := res.PerPeer[cp.Peer]; !ps.Crashed {
			t.Errorf("peer %d not reported crashed", cp.Peer)
		}
	}
}

// helloFirst broadcasts a hello (an adversary.Junk, which the wire
// carries) before its protocol's Init; with wait set it holds that Init,
// and the protocol messages that arrive before it, until every other
// peer's hello is in. A sender's first Junk is its hello, since it sends
// nothing before it; a later Junk is the protocol's.
type helloFirst struct {
	sim.Peer
	wait    bool
	ctx     sim.Context
	greeted []bool // greeted[p]: p's hello is in
	hellos  int
	started bool
	held    []heldMsg
}

type heldMsg struct {
	from sim.PeerID
	m    sim.Message
}

func (h *helloFirst) Init(ctx sim.Context) {
	h.ctx = ctx
	h.greeted = make([]bool, ctx.N())
	ctx.Broadcast(&adversary.Junk{Bits: 8})
	if !h.wait {
		h.start()
	}
}

func (h *helloFirst) OnMessage(from sim.PeerID, m sim.Message) {
	_, junk := m.(*adversary.Junk)
	switch {
	case junk && !h.greeted[from]:
		h.greeted[from] = true
		if h.hellos++; h.hellos == h.ctx.N()-1 && h.wait {
			h.start()
		}
	case h.started:
		h.Peer.OnMessage(from, m)
	default:
		h.held = append(h.held, heldMsg{from, m})
	}
}

func (h *helloFirst) start() {
	h.started = true
	h.Peer.Init(h.ctx)
	for _, hm := range h.held {
		h.Peer.OnMessage(hm.from, hm.m)
	}
	h.held = nil
}
