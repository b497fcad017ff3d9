package segproto

import (
	"testing"
	"testing/quick"

	"repro/internal/bitarray"
	"repro/internal/dtree"
	"repro/internal/sim"
)

func TestDeriveProperties(t *testing.T) {
	f := func(nU, tU uint8, lU uint16) bool {
		n := int(nU)%1000 + 2
		tf := int(tU) % n
		L := int(lU) + 2
		p := Derive(n, tf, L)
		if p.Gap != n-2*tf {
			return false
		}
		if p.Naive {
			return true
		}
		// Non-naive: segments within bounds, threshold sensible.
		if p.Segments < 2 || p.Segments > L {
			return false
		}
		k := p.Threshold(p.Segments)
		if k < 1 || k > p.Gap {
			return false
		}
		// Expected honest picks per segment must be at least 2k − slack.
		expect := float64(p.Gap) / float64(p.Segments)
		return float64(k) <= expect/2+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPowerOfTwoSegments(t *testing.T) {
	cases := map[int]int{2: 2, 3: 2, 4: 4, 7: 4, 8: 8, 1000: 512}
	for in, want := range cases {
		p := Params{Segments: in}
		if got := p.PowerOfTwoSegments(); got != want {
			t.Errorf("PowerOfTwoSegments(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestSegValueSize(t *testing.T) {
	sv := &SegValue{Cycle: 1, Seg: 3, Values: bitarray.New(100), IdxBits: 14}
	if got := sv.SizeBits(); got != 64+14+100 {
		t.Errorf("SizeBits = %d", got)
	}
}

func TestCollectorDedupeAndValidation(t *testing.T) {
	const L = 100
	col := NewCollector(L)
	segs := 4
	segLen := dtree.SegmentOf(L, segs, 1).Len
	good := &SegValue{Cycle: 1, Seg: 1, Values: bitarray.New(segLen)}

	if !col.Accept(3, good, segs) {
		t.Fatal("valid message rejected")
	}
	if col.Accept(3, good, segs) {
		t.Fatal("duplicate sender accepted")
	}
	if col.Count(1) != 1 {
		t.Fatalf("count = %d", col.Count(1))
	}
	// Same sender, different cycle: fine.
	if !col.Accept(3, &SegValue{Cycle: 2, Seg: 0, Values: bitarray.New(dtree.SegmentOf(L, 2, 0).Len)}, 2) {
		t.Fatal("second-cycle message rejected")
	}

	bad := []*SegValue{
		nil,
		{Cycle: 0, Seg: 0, Values: bitarray.New(segLen)},
		{Cycle: 1, Seg: -1, Values: bitarray.New(segLen)},
		{Cycle: 1, Seg: segs, Values: bitarray.New(segLen)},
		{Cycle: 1, Seg: 0, Values: nil},
		{Cycle: 1, Seg: 1, Values: bitarray.New(segLen + 1)},
	}
	for i, m := range bad {
		if col.Accept(sim.PeerID(10+i), m, segs) {
			t.Errorf("malformed message %d accepted", i)
		}
	}
}

func TestCollectorStringsOrderAndFrequent(t *testing.T) {
	const L = 64
	col := NewCollector(L)
	segLen := dtree.SegmentOf(L, 2, 0).Len
	a := bitarray.New(segLen)
	b := bitarray.New(segLen)
	b.Set(0, true)
	col.Accept(1, &SegValue{Cycle: 1, Seg: 0, Values: a}, 2)
	col.Accept(2, &SegValue{Cycle: 1, Seg: 0, Values: b}, 2)
	col.Accept(3, &SegValue{Cycle: 1, Seg: 0, Values: a.Clone()}, 2)
	col.Accept(4, &SegValue{Cycle: 1, Seg: 1, Values: bitarray.New(dtree.SegmentOf(L, 2, 1).Len)}, 2)

	strs := col.Strings(1, 0)
	if len(strs) != 3 {
		t.Fatalf("got %d strings", len(strs))
	}
	if !strs[0].Equal(a) || !strs[1].Equal(b) || !strs[2].Equal(a) {
		t.Fatal("arrival order not preserved")
	}
	freq := col.FrequentFor(1, 0, 2)
	if len(freq) != 1 || !freq[0].Equal(a) {
		t.Fatalf("FrequentFor k=2 = %v", freq)
	}
}

func TestIndexBits(t *testing.T) {
	cases := map[int]int{1: 1, 2: 1, 3: 2, 256: 8, 257: 9, 1 << 20: 20}
	for L, want := range cases {
		if got := IndexBits(L); got != want {
			t.Errorf("IndexBits(%d) = %d, want %d", L, got, want)
		}
	}
}
