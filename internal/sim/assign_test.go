package sim

import (
	"testing"
	"testing/quick"
)

func TestBlockRangePartition(t *testing.T) {
	for _, tc := range []struct{ L, n int }{
		{100, 10}, {101, 10}, {7, 10}, {1, 2}, {64, 64}, {1000, 7}, {0, 3},
	} {
		covered := 0
		prevEnd := 0
		for p := 0; p < tc.n; p++ {
			lo, hi := BlockRange(tc.L, tc.n, PeerID(p))
			if lo != prevEnd {
				t.Fatalf("L=%d n=%d p=%d: gap at %d (lo=%d)", tc.L, tc.n, p, prevEnd, lo)
			}
			if hi < lo {
				t.Fatalf("L=%d n=%d p=%d: negative block", tc.L, tc.n, p)
			}
			covered += hi - lo
			prevEnd = hi
		}
		if covered != tc.L {
			t.Fatalf("L=%d n=%d: covered %d", tc.L, tc.n, covered)
		}
	}
}

func TestBlockRangeBalanced(t *testing.T) {
	const L, n = 103, 10
	min, max := L, 0
	for p := 0; p < n; p++ {
		lo, hi := BlockRange(L, n, PeerID(p))
		size := hi - lo
		if size < min {
			min = size
		}
		if size > max {
			max = size
		}
	}
	if max-min > 1 {
		t.Fatalf("imbalanced blocks: min=%d max=%d", min, max)
	}
}

func TestBlockOwnerMatchesRange(t *testing.T) {
	for _, tc := range []struct{ L, n int }{{100, 10}, {101, 10}, {7, 10}, {64, 64}, {999, 13}} {
		for i := 0; i < tc.L; i++ {
			p := BlockOwner(tc.L, tc.n, i)
			lo, hi := BlockRange(tc.L, tc.n, p)
			if i < lo || i >= hi {
				t.Fatalf("L=%d n=%d: owner of %d is %d but block is [%d,%d)",
					tc.L, tc.n, i, p, lo, hi)
			}
		}
	}
}

func TestQuickBlockOwnerConsistency(t *testing.T) {
	f := func(lU uint16, nU uint8, iU uint16) bool {
		L := int(lU)%2000 + 1
		n := int(nU)%64 + 2
		i := int(iU) % L
		p := BlockOwner(L, n, i)
		lo, hi := BlockRange(L, n, p)
		return lo <= i && i < hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSpreadOwnerBalance(t *testing.T) {
	const m, n = 100, 7
	counts := make([]int, n)
	for j := 0; j < m; j++ {
		counts[SpreadOwner(j, n)]++
	}
	for p, c := range counts {
		if c < m/n || c > m/n+1 {
			t.Errorf("peer %d got %d of %d items", p, c, m)
		}
	}
}

func TestSpreadSlots(t *testing.T) {
	const m, n = 11, 4
	seen := make(map[int]bool)
	for p := 0; p < n; p++ {
		for _, j := range SpreadSlots(m, n, PeerID(p)) {
			if SpreadOwner(j, n) != PeerID(p) {
				t.Fatalf("slot %d not owned by %d", j, p)
			}
			if seen[j] {
				t.Fatalf("slot %d assigned twice", j)
			}
			seen[j] = true
		}
	}
	if len(seen) != m {
		t.Fatalf("covered %d of %d slots", len(seen), m)
	}
	if SpreadSlots(0, n, 0) != nil {
		t.Error("empty spread not nil")
	}
}

func TestConfigValidateAndDerived(t *testing.T) {
	c := Config{N: 10, T: 3, L: 100, MsgBits: 16, Seed: 1}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if b := c.Beta(); b != 0.3 {
		t.Errorf("Beta = %v", b)
	}
	if c.EventCap() <= 0 {
		t.Error("EventCap not positive")
	}
	c.MaxEvents = 42
	if c.EventCap() != 42 {
		t.Errorf("EventCap override = %d", c.EventCap())
	}
	in := c.ResolveInput()
	if in.Len() != 100 {
		t.Errorf("ResolveInput len = %d", in.Len())
	}
	in2 := c.ResolveInput()
	if !in.Equal(in2) {
		t.Error("ResolveInput not deterministic for same seed")
	}
	c.Seed = 2
	if c.ResolveInput().Equal(in) {
		t.Error("different seeds gave same input")
	}
}

// TestFaultsByPeer: each fate is found under its peer, and an honest peer
// has none.
func TestFaultsByPeer(t *testing.T) {
	f := Faults{Fates: []Fate{{Peer: 4, CrashAfter: 2, Downtime: 1}, {Peer: 1, CrashAfter: -1, Downtime: -1}}}
	by := f.ByPeer(6)
	if len(by) != 6 || by[1] != &f.Fates[1] || by[4] != &f.Fates[0] || by[0] != nil || by[5] != nil {
		t.Errorf("ByPeer = %v", by)
	}
	if !by[4].Rejoins() || by[1].Rejoins() || by[0].Rejoins() || by[0].Absent() {
		t.Error("Rejoins or Absent wrong")
	}
}

// TestFaultsValidate is the one check of fates against n and t.
func TestFaultsValidate(t *testing.T) {
	crash := func(peers ...PeerID) []Fate { return Crashes(peers, 0) }
	for _, tc := range []struct {
		name   string
		faults Faults
		ok     bool
	}{
		{"none", Faults{}, true},
		{"at the bound", Faults{Fates: crash(0, 3)}, true},
		{"duplicate peer", Faults{Fates: crash(1, 1)}, false},
		{"crash and Byzantine on one peer", Faults{Fates: append(crash(2), Byzantines([]PeerID{2}, nil)...)}, false},
		{"out of range above", Faults{Fates: crash(4)}, false},
		{"out of range below", Faults{Fates: crash(-1)}, false},
		{"count above t", Faults{Fates: crash(0, 1, 2)}, false},
		{"count above t allowed", Faults{Fates: crash(0, 1, 2), AllowExcess: true}, true},
		{"count reaches n", Faults{Fates: crash(0, 1, 2, 3), AllowExcess: true}, false},
		{"downtime without crash", Faults{Fates: []Fate{{Peer: 0, CrashAfter: -1, Downtime: 1}}}, false},
	} {
		if err := tc.faults.Validate(4, 2); (err == nil) != tc.ok {
			t.Errorf("%s: Validate = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}
