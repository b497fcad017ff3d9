package crashk

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bitarray"
	"repro/internal/intset"
	"repro/internal/sim"
)

// walkInRange is inRange's definition: every range checked on its own.
func walkInRange(set intset.Set, L int) bool {
	ok := true
	set.ForEachRange(func(lo, hi int) {
		if lo < 0 || hi > L {
			ok = false
		}
	})
	return ok
}

// modelAnswer is answerReq2's definition, item by item with fresh slices:
// values if the item is in range and every bit of it is known, me-neither
// otherwise.
func modelAnswer(p *Peer, req *Req2) *Resp2 {
	resp := &Resp2{Phase: req.Phase, IdxBits: p.idxBits}
	for _, it := range req.Items {
		known := walkInRange(it.Indices, p.env.L)
		if known {
			it.Indices.ForEachRange(func(lo, hi int) {
				known = known && p.track.KnownRange(lo, hi)
			})
		}
		if !known {
			resp.Items = append(resp.Items, Resp2Item{Q: it.Q, MeNeither: true})
			continue
		}
		vals := bitarray.New(it.Indices.Len())
		i := 0
		it.Indices.ForEach(func(x int) {
			v, _ := p.track.Get(x)
			vals.Set(i, v)
			i++
		})
		resp.Items = append(resp.Items, Resp2Item{Q: it.Q, Indices: it.Indices, Values: vals})
	}
	return resp
}

// randomSubset picks a random subset of the bits of [0, L) whose known-ness
// is want; either is allowed with want < 0.
func randomSubset(rng *rand.Rand, tr *bitarray.Tracker, want int, density float64) intset.Set {
	var b intset.Builder
	for x := 0; x < tr.Len(); x++ {
		if (want < 0 || tr.Known(x) == (want == 1)) && rng.Float64() < density {
			b.Add(x)
		}
	}
	return b.Set()
}

// req2Items builds a request holding every kind of item a peer can be sent:
// all known, none known, mixed, out of range at either end, and empty.
func req2Items(rng *rand.Rand, tr *bitarray.Tracker, n int) []Req2Item {
	L := tr.Len()
	var beyond, below intset.Builder
	beyond.AddRange(L-1-rng.Intn(L), L+1+rng.Intn(5))
	below.AddRange(-1-rng.Intn(5), rng.Intn(L))
	kinds := []func() intset.Set{
		func() intset.Set { return randomSubset(rng, tr, 1, 0.2) },
		func() intset.Set { return randomSubset(rng, tr, 0, 0.2) },
		func() intset.Set { return randomSubset(rng, tr, -1, 0.1) },
		func() intset.Set { return beyond.Set() },
		func() intset.Set { return below.Set() },
		func() intset.Set { return intset.Set{} },
	}
	items := make([]Req2Item, n)
	for k := range items {
		items[k] = Req2Item{Q: sim.PeerID(rng.Intn(64)), Indices: kinds[(k+rng.Intn(2))%len(kinds)]()}
	}
	return items
}

func sentResp2(t *testing.T, p *Peer, to sim.PeerID) *Resp2 {
	t.Helper()
	acts := p.em.Actions()
	if len(acts) != 1 || acts[0].Kind != sim.ActSend || acts[0].To != to {
		t.Fatalf("answerReq2 emitted %+v, want one send to %d", acts, to)
	}
	resp, ok := acts[0].Msg.(*Resp2)
	if !ok {
		t.Fatalf("answerReq2 sent a %T", acts[0].Msg)
	}
	return resp
}

// TestAnswerReq2MatchesModel compares the one-ruling, one-arena answer with
// the per-item model, field by field.
func TestAnswerReq2MatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, re := range []Reassign{ReassignHash, ReassignRotate} {
		for trial := 0; trial < 60; trial++ {
			L := 2 + rng.Intn(1500)
			density := []float64{0, 0.3, 0.7, 1}[trial%4]
			p := partitionPeer(1, 16, L, re)
			learnRandom(rng, p.track, density)
			// Two requests through one peer: the ruling scratch is reused.
			for _, n := range []int{1 + rng.Intn(20), rng.Intn(8)} {
				label := fmt.Sprintf("reassign=%d L=%d density=%.1f items=%d", re, L, density, n)
				req := &Req2{Phase: 1 + rng.Intn(5), Items: req2Items(rng, p.track, n), IdxBits: p.idxBits}
				want := modelAnswer(p, req)
				p.em.Reset(false)
				p.answerReq2(7, req)
				got := sentResp2(t, p, 7)
				if got.Phase != want.Phase || got.IdxBits != want.IdxBits || len(got.Items) != len(want.Items) {
					t.Fatalf("%s: got (phase %d, idx %d, %d items), want (%d, %d, %d)", label,
						got.Phase, got.IdxBits, len(got.Items), want.Phase, want.IdxBits, len(want.Items))
				}
				for k, w := range want.Items {
					g := got.Items[k]
					if g.Q != w.Q || g.MeNeither != w.MeNeither ||
						!reflect.DeepEqual(rangesOf(g.Indices), rangesOf(w.Indices)) {
						t.Fatalf("%s: item %d is (%d, %v, %v), want (%d, %v, %v)", label, k,
							g.Q, g.MeNeither, g.Indices, w.Q, w.MeNeither, w.Indices)
					}
					if (g.Values == nil) != (w.Values == nil) || (w.Values != nil && !g.Values.Equal(w.Values)) {
						t.Fatalf("%s: item %d values %v, want %v", label, k, g.Values, w.Values)
					}
				}
				if got.SizeBits() != want.SizeBits() {
					t.Fatalf("%s: SizeBits %d, want %d", label, got.SizeBits(), want.SizeBits())
				}
			}
		}
	}
}

// TestAnswerReq2AllocBudget: the message, its item slice and the arena's
// slab and array headers, however many items the request has.
func TestAnswerReq2AllocBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	p := partitionPeer(1, 16, 1<<12, ReassignHash)
	learnRandom(rng, p.track, 0.6)
	for _, n := range []int{8, 120} {
		req := &Req2{Phase: 2, Items: req2Items(rng, p.track, n), IdxBits: p.idxBits}
		p.answerReq2(7, req) // sizes the scratch and the emitter's action list
		allocs := testing.AllocsPerRun(20, func() {
			p.em.Reset(false)
			p.answerReq2(7, req)
		})
		if allocs > 4 {
			t.Errorf("%d items: answerReq2 allocated %.0f times, budget 4", n, allocs)
		}
	}
}

// TestInRangeByBounds: on sets made through Builder — the only way to make
// one — the bounds rule on range exactly as the per-range walk does.
func TestInRangeByBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 2000; trial++ {
		var b intset.Builder
		x := rng.Intn(40) - 20
		for k := rng.Intn(6); k > 0; k-- {
			if rng.Intn(2) == 0 {
				b.Add(x)
				x += 1 + rng.Intn(3)
			} else {
				hi := x + 1 + rng.Intn(30)
				b.AddRange(x, hi)
				x = hi + rng.Intn(3)
			}
		}
		set := b.Set()
		for _, L := range []int{0, 1, 10, 40, 100} {
			if got, want := inRange(set, L), walkInRange(set, L); got != want {
				t.Fatalf("inRange(%v, %d) = %v, the per-range walk says %v", set, L, got, want)
			}
		}
	}
}
