package explore_test

import (
	"testing"

	"repro/internal/explore"
	"repro/internal/protocols/crash1"
	"repro/internal/protocols/crashk"
	"repro/internal/protocols/naive"
	"repro/internal/sim"
)

// TestExplorationVolumeGrowsWithDepth sanity-checks the odometer: deeper
// exploration must strictly widen the schedule tree.
func TestExplorationVolumeGrowsWithDepth(t *testing.T) {
	prev := 0
	for _, depth := range []int{2, 4, 6} {
		rep, err := explore.Run(explore.Config{
			N: 3, T: 1, L: 12, Seed: 2,
			NewPeer:     crash1.New,
			CrashPoints: map[sim.PeerID]int{0: 6},
			MaxChoices:  depth,
			Budget:      2000000,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Exhaustive {
			t.Fatalf("depth %d exceeded budget: %v", depth, rep)
		}
		if !rep.Ok() {
			t.Fatalf("depth %d: %v", depth, rep)
		}
		t.Logf("depth %d: %v", depth, rep)
		if rep.Executions <= prev {
			t.Fatalf("depth %d explored %d ≤ depth-%d's %d",
				depth, rep.Executions, depth-2, prev)
		}
		prev = rep.Executions
	}
}

// TestA7ScheduleCounts pins the schedule-tree sizes of experiment A7's
// first five rows (seed 1, L = 12, depth 6; EXPERIMENTS.md). The counts
// are a fingerprint of the engine's decision points: an engine change
// that adds, drops or reorders a pending event moves them.
func TestA7ScheduleCounts(t *testing.T) {
	for _, row := range []struct {
		name       string
		newPeer    func(sim.PeerID) sim.Peer
		tf         int
		crash      map[sim.PeerID]int
		executions int
		maxFanout  int
	}{
		{"naive", naive.New, 0, nil, 90, 3},
		{"crash1@0", crash1.New, 1, map[sim.PeerID]int{0: 0}, 600, 6},
		{"crash1@4", crash1.New, 1, map[sim.PeerID]int{0: 4}, 1142, 6},
		{"crash1@8", crash1.New, 1, map[sim.PeerID]int{0: 8}, 1530, 6},
		{"crashk@5", crashk.New, 1, map[sim.PeerID]int{0: 5}, 13790, 9},
	} {
		rep, err := explore.Run(explore.Config{
			N: 3, T: row.tf, L: 12, Seed: 1,
			NewPeer:     row.newPeer,
			CrashPoints: row.crash,
			MaxChoices:  6,
			Budget:      400000,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Exhaustive || !rep.Ok() {
			t.Errorf("%s: %v", row.name, rep)
		}
		if rep.Executions != row.executions || rep.MaxFanout != row.maxFanout {
			t.Errorf("%s: %d schedules with max fan-out %d, want %d and %d",
				row.name, rep.Executions, rep.MaxFanout, row.executions, row.maxFanout)
		}
	}
}
