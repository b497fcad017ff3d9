package segproto

import (
	"math/rand"
	"testing"

	"repro/internal/bitarray"
	"repro/internal/dtree"
	"repro/internal/sim"
	"repro/internal/sim/simtest"
)

func knowledgeFor(n, t, L int) *sim.Knowledge {
	return &sim.Knowledge{
		Input:  bitarray.Random(rand.New(rand.NewSource(1)), L),
		Config: sim.Config{N: n, T: t, L: L, MsgBits: 64, Seed: 1},
	}
}

func TestColludingLiarForgesFrequentableString(t *testing.T) {
	const n, tf, L = 256, 64, 1 << 12
	know := knowledgeFor(n, tf, L)
	params := Derive(n, tf, L)
	if params.Naive {
		t.Fatal("test scale too small")
	}

	// Two liars must broadcast IDENTICAL forged strings.
	var all [][]simtest.Sent
	for _, id := range []sim.PeerID{0, 1} {
		ctx := simtest.New(id, n, tf, L)
		liar := NewColludingLiar(id, know)
		liar.Init(ctx)
		if len(ctx.Sent) == 0 {
			t.Fatal("liar sent nothing")
		}
		all = append(all, ctx.Sent)
	}
	sv0, ok0 := all[0][0].Msg.(*SegValue)
	sv1, ok1 := all[1][0].Msg.(*SegValue)
	if !ok0 || !ok1 {
		t.Fatal("liar sent non-SegValue")
	}
	if sv0.Seg != sv1.Seg || sv0.Cycle != sv1.Cycle || !sv0.Values.Equal(sv1.Values) {
		t.Fatal("liars did not collude on an identical string")
	}
	// The forgery must be well-formed (correct length for its segment)
	// and wrong (differ from the truth).
	seg := dtree.SegmentOf(L, params.Segments, sv0.Seg)
	if sv0.Values.Len() != seg.Len {
		t.Fatalf("forged length %d != segment length %d", sv0.Values.Len(), seg.Len)
	}
	truth := know.Input.Slice(seg.Start, seg.Len)
	if sv0.Values.Equal(truth) {
		t.Fatal("forgery equals the truth")
	}
}

func TestColludingLiarSilentInNaiveRegime(t *testing.T) {
	know := knowledgeFor(8, 3, 256) // degenerate scale
	ctx := simtest.New(0, 8, 3, 256)
	NewColludingLiar(0, know).Init(ctx)
	if len(ctx.Sent) != 0 {
		t.Fatalf("liar sent %d messages in the naive regime", len(ctx.Sent))
	}
}

func TestScatterLiarSendsWellFormedVariedStrings(t *testing.T) {
	const n, tf, L = 256, 64, 1 << 12
	know := knowledgeFor(n, tf, L)
	params := Derive(n, tf, L)
	seen := map[int]bool{}
	for id := sim.PeerID(0); id < 6; id++ {
		ctx := simtest.New(id, n, tf, L)
		NewScatterLiar(id, know).Init(ctx)
		if len(ctx.Sent) == 0 {
			t.Fatalf("scatter liar %d sent nothing", id)
		}
		sv, ok := ctx.Sent[0].Msg.(*SegValue)
		if !ok {
			t.Fatal("non-SegValue")
		}
		if sv.Seg < 0 || sv.Seg >= params.Segments {
			t.Fatalf("segment %d out of range", sv.Seg)
		}
		if sv.Values.Len() != dtree.SegmentOf(L, params.Segments, sv.Seg).Len {
			t.Fatal("malformed forged length")
		}
		seen[sv.Seg] = true
	}
	if len(seen) < 2 {
		t.Error("scatter liars all picked the same segment")
	}
}

func TestAttackersIgnoreTraffic(t *testing.T) {
	know := knowledgeFor(256, 64, 1<<12)
	for _, mk := range []func(sim.PeerID, *sim.Knowledge) sim.Peer{NewColludingLiar, NewScatterLiar} {
		ctx := simtest.New(0, 256, 64, 1<<12)
		a := mk(0, know)
		a.Init(ctx)
		before := len(ctx.Sent)
		a.OnMessage(1, &SegValue{Cycle: 1, Seg: 0, Values: bitarray.New(8)})
		a.OnQueryReply(sim.QueryReply{})
		if len(ctx.Sent) != before {
			t.Error("attacker reacted to traffic")
		}
	}
}
