package netrt_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/netrt"
	"repro/internal/protocols/committee"
	"repro/internal/protocols/crash1"
	"repro/internal/protocols/crashk"
	"repro/internal/protocols/naive"
	"repro/internal/protocols/twocycle"
	"repro/internal/sim"
)

func TestNaiveOverTCP(t *testing.T) {
	res, err := netrt.Run(netrt.Config{
		N: 4, T: 0, L: 512, MsgBits: 128, Seed: 1,
		NewPeer: naive.New,
		Timeout: 20 * time.Second,
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
	res, err := netrt.Run(netrt.Config{
		N: 8, T: 3, L: 2048, MsgBits: 256, Seed: 2,
		NewPeer: crashk.New,
		Fates:   sim.Crashes([]sim.PeerID{1, 4, 6}, 0),
		Timeout: 30 * time.Second,
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
	res, err := netrt.Run(netrt.Config{
		N: 6, T: 1, L: 600, MsgBits: 128, Seed: 3,
		NewPeer: crash1.New,
		Fates:   sim.Crashes([]sim.PeerID{2}, 0),
		Timeout: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("incorrect: %v", res)
	}
}

func TestCommitteeOverTCP(t *testing.T) {
	res, err := netrt.Run(netrt.Config{
		N: 9, T: 2, L: 270, MsgBits: 256, Seed: 4,
		NewPeer: committee.New,
		Timeout: 20 * time.Second,
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
	res, err := netrt.Run(netrt.Config{
		N: 128, T: 16, L: 1 << 12, MsgBits: 256, Seed: 5,
		NewPeer: twocycle.New,
		Timeout: 60 * time.Second,
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
	bad := []netrt.Config{
		{N: 1, T: 0, L: 8, MsgBits: 64, NewPeer: naive.New},
		{N: 4, T: 1, L: 8, MsgBits: 64},
		{N: 4, T: 1, L: 8, MsgBits: 64, NewPeer: naive.New, Fates: sim.Crashes([]sim.PeerID{0, 1}, 0)},
	}
	for i, cfg := range bad {
		if _, err := netrt.Run(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

// TestAbsentValidation: an Absent peer is a fate, checked as every fate
// is: one out of range or listed twice is refused before the run, not run
// into an incorrect result.
func TestAbsentValidation(t *testing.T) {
	for name, absent := range map[string][]sim.PeerID{
		"above range": {99},
		"below range": {-1},
		"duplicate":   {2, 2},
	} {
		res, err := netrt.Run(netrt.Config{N: 4, T: 2, L: 64, MsgBits: 64, NewPeer: naive.New,
			Absent: absent, Timeout: 10 * time.Second})
		if err == nil {
			t.Errorf("%s: Absent %v accepted (Correct=%v)", name, absent, res.Correct)
		}
	}
}

func TestManySeedsSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock heavy")
	}
	for seed := int64(10); seed < 13; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			res, err := netrt.Run(netrt.Config{
				N: 6, T: 2, L: 1024, MsgBits: 128, Seed: seed,
				NewPeer: crashk.NewFast,
				Fates:   sim.Crashes([]sim.PeerID{0, 3}, 0),
				Timeout: 20 * time.Second,
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
func TestChurnCrashMidRun(t *testing.T) {
	crashed := []sim.Fate{
		{Peer: 1, CrashAfter: 3, Downtime: -1},
		{Peer: 5, CrashAfter: 12, Downtime: -1},
	}
	res, err := netrt.Run(netrt.Config{
		N: 8, T: 3, L: 2048, MsgBits: 256, Seed: 6,
		NewPeer: crashk.New,
		Fates:   crashed,
		Timeout: 30 * time.Second,
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
