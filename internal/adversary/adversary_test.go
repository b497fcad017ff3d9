package adversary

import (
	"slices"
	"testing"

	"repro/internal/sim"
	"repro/internal/sim/simtest"
)

func TestFixed(t *testing.T) {
	f := NewFixed(0.5)
	if d := f.MessageDelay(0, 1, 10, 100); d != 0.5 {
		t.Errorf("MessageDelay = %v", d)
	}
	if d := f.QueryDelay(0, 10); d != 0.5 {
		t.Errorf("QueryDelay = %v", d)
	}
	if d := f.StartDelay(3); d != 0 {
		t.Errorf("StartDelay = %v", d)
	}
}

func TestRandomBounds(t *testing.T) {
	r := NewRandom(1, 0.25, 2.0)
	for i := 0; i < 1000; i++ {
		d := r.MessageDelay(0, 1, 0, 8)
		if d <= 0.25 || d > 2.0 {
			t.Fatalf("delay %v out of (0.25, 2]", d)
		}
		q := r.QueryDelay(0, 0)
		if q <= 0.25 || q > 2.0 {
			t.Fatalf("query delay %v out of (0.25, 2]", q)
		}
		s := r.StartDelay(0)
		if s <= 0 || s > 1.75 {
			t.Fatalf("start delay %v out of (0, 1.75]", s)
		}
	}
}

func TestRandomRejectsBadBounds(t *testing.T) {
	for _, tc := range []struct{ min, max float64 }{{-1, 1}, {1, 1}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewRandom(%v, %v) did not panic", tc.min, tc.max)
				}
			}()
			NewRandom(1, tc.min, tc.max)
		}()
	}
}

func TestRandomDeterministicPerSeed(t *testing.T) {
	a, b := NewRandomUnit(7), NewRandomUnit(7)
	for i := 0; i < 100; i++ {
		if a.MessageDelay(0, 1, 0, 0) != b.MessageDelay(0, 1, 0, 0) {
			t.Fatal("same-seed policies diverged")
		}
	}
}

func TestTargetedSlow(t *testing.T) {
	base := NewFixed(0.1)
	ts := NewTargetedSlow(base, []sim.PeerID{2, 5}, 1000)
	if d := ts.MessageDelay(2, 0, 0, 0); d != 1000 {
		t.Errorf("slow outgoing = %v", d)
	}
	if d := ts.MessageDelay(0, 2, 0, 0); d != 0.1 {
		t.Errorf("incoming to slow should be base: %v", d)
	}
	ts.SlowIncoming = true
	if d := ts.MessageDelay(0, 2, 0, 0); d != 1000 {
		t.Errorf("SlowIncoming not applied: %v", d)
	}
	if d := ts.MessageDelay(0, 1, 0, 0); d != 0.1 {
		t.Errorf("unaffected pair delayed: %v", d)
	}
	if d := ts.QueryDelay(2, 0); d != 0.1 {
		t.Errorf("queries should not be slowed: %v", d)
	}
}

func TestSlowQueries(t *testing.T) {
	sq := &SlowQueries{Base: NewFixed(0.5), Factor: 10}
	if d := sq.QueryDelay(0, 0); d != 5.0 {
		t.Errorf("QueryDelay = %v", d)
	}
	if d := sq.MessageDelay(0, 1, 0, 0); d != 0.5 {
		t.Errorf("MessageDelay = %v", d)
	}
}

// TestNewCrashRandom pins the crash points NewCrashRandom draws for one
// seed, one per peer in order and none rejoining: every seeded
// crash-random run (the corpus, the goldens, Table 1) depends on them.
func TestNewCrashRandom(t *testing.T) {
	peers := []sim.PeerID{0, 1, 2, 5, 7}
	fates := NewCrashRandom(9, peers, 100)
	want := []int{58, 99, 86, 64, 13}
	if len(fates) != len(peers) {
		t.Fatalf("%d fates for %d peers", len(fates), len(peers))
	}
	for i, f := range fates {
		if f.Peer != peers[i] || f.CrashAfter != want[i] || f.Downtime >= 0 || f.Byzantine != nil {
			t.Errorf("fate %d = %+v, want peer %d crashing after %d for good", i, f, peers[i], want[i])
		}
	}
}

func TestFaultyPeerSets(t *testing.T) {
	if got := FaultyPeers(3); len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Errorf("FaultyPeers = %v", got)
	}
	for _, tc := range []struct{ n, tf int }{{10, 3}, {12, 5}, {8, 7}, {5, 5}, {6, 0}} {
		got := SpreadFaulty(tc.n, tc.tf)
		if len(got) != tc.tf {
			t.Fatalf("SpreadFaulty(%d,%d) len = %d", tc.n, tc.tf, len(got))
		}
		seen := make(map[sim.PeerID]bool)
		for _, p := range got {
			if p < 0 || int(p) >= tc.n {
				t.Fatalf("peer %d out of range", p)
			}
			if seen[p] {
				t.Fatalf("duplicate peer %d", p)
			}
			seen[p] = true
		}
	}
}

func TestJunkSize(t *testing.T) {
	j := &Junk{Bits: 77}
	if j.SizeBits() != 77 {
		t.Errorf("SizeBits = %d", j.SizeBits())
	}
}

// TestWrappedContextsForwardPhases: the contexts Rotating and the
// strategist wrap a protocol's context in pass its phase marks through to
// the runtime's (MarkPhase is a Context method, so embedding forwards it).
func TestWrappedContextsForwardPhases(t *testing.T) {
	ctx := simtest.New(0, 4, 1, 64)
	(&mutedCtx{Context: ctx}).MarkPhase("muted")
	(&strategistCtx{Context: ctx}).MarkPhase("strategist")
	if want := []string{"muted", "strategist"}; !slices.Equal(ctx.Phases, want) {
		t.Fatalf("the runtime saw phases %v, want %v", ctx.Phases, want)
	}
}
