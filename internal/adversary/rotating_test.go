package adversary_test

import (
	"fmt"
	"testing"

	"repro/internal/adversary"
	"repro/internal/des"
	"repro/internal/protocols/committee"
	"repro/internal/protocols/segproto"
	"repro/internal/protocols/twocycle"
	"repro/internal/sim"
)

func TestWindowActive(t *testing.T) {
	w := adversary.Window{Start: 1, End: 3}
	for _, tc := range []struct {
		now  float64
		want bool
	}{{0.5, false}, {1, true}, {2.9, true}, {3, false}, {10, false}} {
		if got := w.Active(tc.now); got != tc.want {
			t.Errorf("Active(%v) = %v", tc.now, got)
		}
	}
	var zero adversary.Window
	if zero.Active(0) {
		t.Error("zero window active")
	}
}

// TestRotatingCommittee corrupts t peers during the first time unit only:
// their reports are forged while corrupted, honest afterwards. The
// committee protocol must stay correct for the never-faulty peers, and
// the recovered peers must terminate with the right output too.
func TestRotatingCommittee(t *testing.T) {
	const n, tf, L = 12, 5, 240
	faulty := adversary.SpreadFaulty(n, tf)
	windows := make(map[sim.PeerID]adversary.Window, tf)
	for i, p := range faulty {
		// Staggered windows: at most 2 concurrently corrupted.
		start := float64(i) * 0.4
		windows[p] = adversary.Window{Start: start, End: start + 0.8}
	}
	spec := &sim.Spec{
		Config:  sim.Config{N: n, T: tf, L: L, MsgBits: 64, Seed: 5},
		NewPeer: committee.New,
		Delays:  adversary.NewRandomUnit(5),
		Faults: sim.Faults{Fates: sim.Byzantines(faulty, adversary.NewRotating(
			committee.New, committee.NewLiar, windows))},
	}
	res, err := des.New().Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("never-faulty peers failed: %v", res)
	}
	// Recovered peers resume honest execution and should also converge.
	input := spec.Config.ResolveInput()
	for _, p := range faulty {
		ps := res.PerPeer[p]
		if !ps.Terminated {
			t.Errorf("recovered peer %d did not terminate", p)
			continue
		}
		if ps.Output == nil || !ps.Output.Equal(input) {
			t.Errorf("recovered peer %d output wrong", p)
		}
	}
}

// TestRotatingTwoCycle runs the randomized protocol under rotating
// colluders whose union exceeds what a static adversary could corrupt
// concurrently.
func TestRotatingTwoCycle(t *testing.T) {
	const n, L = 128, 1 << 12
	tf := n / 4
	faulty := adversary.SpreadFaulty(n, tf)
	windows := make(map[sim.PeerID]adversary.Window, tf)
	for i, p := range faulty {
		if i%2 == 0 {
			windows[p] = adversary.Window{Start: 0, End: 1.5}
		} else {
			windows[p] = adversary.Window{Start: 1.5, End: 4}
		}
	}
	spec := &sim.Spec{
		Config:  sim.Config{N: n, T: tf, L: L, MsgBits: 64, Seed: 6},
		NewPeer: twocycle.New,
		Delays:  adversary.NewRandomUnit(6),
		Faults: sim.Faults{Fates: sim.Byzantines(faulty, adversary.NewRotating(
			twocycle.New, segproto.NewColludingLiar, windows))},
	}
	res, err := des.New().Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("twocycle under rotating colluders: %v", res)
	}
}

// TestRotatingNeverCorrupted: a zero window means fully honest behavior;
// the peer must act exactly like an honest one.
func TestRotatingNeverCorrupted(t *testing.T) {
	const n, L = 8, 128
	for _, seed := range []int64{1, 2} {
		run := func(rotating bool) string {
			spec := &sim.Spec{
				Config:  sim.Config{N: n, T: 2, L: L, MsgBits: 64, Seed: seed},
				NewPeer: committee.New,
				Delays:  adversary.NewRandomUnit(seed),
			}
			if rotating {
				spec.Faults = sim.Faults{Fates: sim.Byzantines([]sim.PeerID{1, 3},
					adversary.NewRotating(committee.New, committee.NewLiar, nil))}
			}
			res, err := des.New().Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			return fmt.Sprintf("Q=%d time=%.4f events=%d", res.Q, res.Time, res.Events)
		}
		plain, rotated := run(false), run(true)
		if plain != rotated {
			t.Errorf("seed %d: zero-window rotating changed the execution: %s vs %s",
				seed, plain, rotated)
		}
	}
}
