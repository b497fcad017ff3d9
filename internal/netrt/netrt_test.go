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
		Absent:  []sim.PeerID{1, 4, 6},
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
		Absent:  []sim.PeerID{2},
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
		{N: 4, T: 1, L: 8, MsgBits: 64, NewPeer: naive.New, Absent: []sim.PeerID{0, 1}},
	}
	for i, cfg := range bad {
		if _, err := netrt.Run(cfg); err == nil {
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
			res, err := netrt.Run(netrt.Config{
				N: 6, T: 2, L: 1024, MsgBits: 128, Seed: seed,
				NewPeer: crashk.NewFast,
				Absent:  []sim.PeerID{0, 3},
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

// TestChurnCrashMidRun: two peers crash mid-run and never rejoin (a churn
// crash with a negative downtime, which is how download runs crash-random
// on sockets). The survivors must still complete (crashk tolerates it),
// and the crashed peers are reported crashed and faulty rather than
// failing the run.
func TestChurnCrashMidRun(t *testing.T) {
	crashed := []sim.ChurnPeer{
		{Peer: 1, CrashAfter: 3, Downtime: -1},
		{Peer: 5, CrashAfter: 12, Downtime: -1},
	}
	res, err := netrt.Run(netrt.Config{
		N: 8, T: 3, L: 2048, MsgBits: 256, Seed: 6,
		NewPeer: crashk.New,
		Churn:   crashed,
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
