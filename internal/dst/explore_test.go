package dst

import "testing"

// crashed returns base(name, n, t, l, seed) with the listed peers (the
// faulty set) crashing at the given action counts.
func crashed(name string, n, t, l int, seed int64, points ...CrashPoint) *Replay {
	r := base(name, n, t, l, seed)
	if len(points) > 0 {
		r.Fault, r.CrashPoints = FaultCrash, points
		for _, cp := range points {
			r.Faulty = append(r.Faulty, cp.Peer)
		}
	}
	return r
}

func TestNaiveExhaustive(t *testing.T) {
	rep, err := Explore(base("naive", 3, 0, 8, 1), 10, 200000)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Exhaustive {
		t.Fatalf("naive at n=3 should be exhaustively explorable: %v", rep)
	}
	if !rep.Ok() {
		t.Fatalf("failures found: %v (witness: %+v)", rep, rep.Witness)
	}
	if rep.Executions < 2 {
		t.Fatalf("suspiciously few executions: %v", rep)
	}
}

func TestCrash1AllSchedules(t *testing.T) {
	// Exhaustive over the first 5 decisions, every crash point of the
	// victim in the interesting range. This is the configuration family
	// in which the coverage-guided fuzzer found the termination
	// deadlock; post-fix, every schedule must be clean.
	for point := 0; point <= 10; point++ {
		rep, err := Explore(crashed("crash1", 3, 1, 12, 2, CrashPoint{Peer: 0, Point: point}), 5, 120000)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Ok() {
			t.Fatalf("point=%d: %v (witness: %+v)", point, rep, rep.Witness)
		}
	}
}

func TestCrashKSampledSchedules(t *testing.T) {
	r := crashed("crashk", 4, 2, 16, 3, CrashPoint{Peer: 0, Point: 3}, CrashPoint{Peer: 2, Point: 9})
	rep, err := Explore(r, 4, 30000)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("schedule broke crashk: %v (witness: %+v)", rep, rep.Witness)
	}
	if rep.Executions < 10 {
		t.Fatalf("too few schedules explored: %v", rep)
	}
}

// TestExplorerFindsLivenessBug explores the registry's planted
// termination deadlock (crash1-legacy, Algorithm 1 before its fix) from
// the committed replay's header alone: the explorer must report the
// deadlock, and its witness must replay to it with its own event hash.
func TestExplorerFindsLivenessBug(t *testing.T) {
	r, err := Load("testdata/replays/crash1-legacy-deadlock.dsr")
	if err != nil {
		t.Fatal(err)
	}
	r.Choices, r.Expect, r.EventHash = nil, "", ""
	rep, err := Explore(r, 6, 200000)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Deadlocks == 0 {
		t.Fatalf("explorer missed the planted deadlock: %v", rep)
	}
	w := rep.Witness
	if w == nil || w.Expect != ExpectDeadlock || w.EventHash == "" {
		t.Fatalf("no replayable deadlock witness: %+v", w)
	}
	b, err := w.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	w, err = Parse(b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(w); err != nil {
		t.Fatalf("witness does not reproduce: %v", err)
	}
}

func TestExploreValidation(t *testing.T) {
	if _, err := Explore(base("nope", 3, 0, 8, 1), 4, 10); err == nil {
		t.Error("unknown protocol accepted")
	}
	if _, err := Explore(crashed("naive", 3, 0, 8, 1, CrashPoint{Peer: 3, Point: 1}), 4, 10); err == nil {
		t.Error("crash point of an out-of-range peer accepted")
	}
	for _, bad := range [][2]int{{0, 10}, {4, 0}} {
		if _, err := Explore(base("naive", 3, 0, 8, 1), bad[0], bad[1]); err == nil {
			t.Errorf("depth %d budget %d accepted", bad[0], bad[1])
		}
	}
}

func TestBudgetCutoff(t *testing.T) {
	rep, err := Explore(crashed("crash1", 4, 1, 24, 5, CrashPoint{Peer: 1, Point: 5}), 10, 50)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Exhaustive {
		t.Fatalf("depth-10 tree cannot fit in 50 executions: %v", rep)
	}
	if rep.Executions != 50 {
		t.Fatalf("budget not respected: %v", rep)
	}
	if !rep.Ok() {
		t.Fatalf("sampled schedules broke crash1: %v", rep)
	}
}

// TestExplorationVolumeGrowsWithDepth sanity-checks the odometer: deeper
// exploration must strictly widen the schedule tree.
func TestExplorationVolumeGrowsWithDepth(t *testing.T) {
	prev := 0
	for _, depth := range []int{2, 4, 6} {
		rep, err := Explore(crashed("crash1", 3, 1, 12, 2, CrashPoint{Peer: 0, Point: 6}), depth, 2000000)
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
		r          *Replay
		executions int
		maxFanout  int
	}{
		{"naive", crashed("naive", 3, 0, 12, 1), 90, 3},
		{"crash1@0", crashed("crash1", 3, 1, 12, 1, CrashPoint{Peer: 0, Point: 0}), 600, 6},
		{"crash1@4", crashed("crash1", 3, 1, 12, 1, CrashPoint{Peer: 0, Point: 4}), 1142, 6},
		{"crash1@8", crashed("crash1", 3, 1, 12, 1, CrashPoint{Peer: 0, Point: 8}), 1530, 6},
		{"crashk@5", crashed("crashk", 3, 1, 12, 1, CrashPoint{Peer: 0, Point: 5}), 13790, 9},
	} {
		rep, err := Explore(row.r, 6, 400000)
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
