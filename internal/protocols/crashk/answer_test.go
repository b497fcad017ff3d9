package crashk

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/bitarray"
	"repro/internal/intset"
	"repro/internal/sim"
	"repro/internal/sim/simtest"
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

// modelItem is one answer item by its definition: a peer, and either
// me-neither or the requested values.
type modelItem struct {
	Q         sim.PeerID
	MeNeither bool
	Indices   intset.Set
	Values    *bitarray.Array
}

// modelAnswer is answerReq2's definition, item by item with fresh slices:
// values if the item is in range and every bit of it is known, me-neither
// otherwise.
func modelAnswer(p *Peer, req *Req2) []modelItem {
	var items []modelItem
	for _, it := range req.Items {
		set := it.Indices.Set()
		known := walkInRange(set, p.ctx.L())
		if known {
			set.ForEachRange(func(lo, hi int) {
				known = known && p.track.KnownRange(lo, hi)
			})
		}
		if !known {
			items = append(items, modelItem{Q: it.Q, MeNeither: true})
			continue
		}
		vals := bitarray.New(set.Len())
		i := 0
		set.ForEach(func(x int) {
			v, _ := p.track.Get(x)
			vals.Set(i, v)
			i++
		})
		items = append(items, modelItem{Q: it.Q, Indices: set, Values: vals})
	}
	return items
}

// splitModel turns the per-item answer into the message's two lists: the
// supplied items, and the me-neither peers as one set.
func splitModel(req *Req2, idxBits int, items []modelItem) *Resp2 {
	resp := &Resp2{Phase: req.Phase, IdxBits: idxBits}
	var neither []int
	for _, it := range items {
		if it.MeNeither {
			neither = append(neither, int(it.Q))
			continue
		}
		resp.Items = append(resp.Items, Resp2Item{Q: it.Q, Indices: it.Indices, Values: it.Values})
	}
	resp.MeNeither = intset.FromSorted(neither)
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

// increasingPeers draws up to k peers of [0, n) in increasing order, in
// runs of consecutive ids and as singletons.
func increasingPeers(rng *rand.Rand, n, k int) []sim.PeerID {
	var qs []sim.PeerID
	for q := rng.Intn(3); q < n && len(qs) < k; {
		qs = append(qs, sim.PeerID(q))
		if rng.Intn(2) == 0 {
			q++
		} else {
			q += 2 + rng.Intn(4)
		}
	}
	return qs
}

// req2Items builds a request holding every kind of item a peer can be sent:
// all known, none known, mixed, out of range at either end, and empty,
// about up to k peers of [0, n) in increasing order.
func req2Items(rng *rand.Rand, tr *bitarray.Tracker, n, k int) []Req2Item {
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
	qs := increasingPeers(rng, n, k)
	items := make([]Req2Item, len(qs))
	for i, q := range qs {
		items[i] = Req2Item{Q: q, Indices: intset.Hold(kinds[(i+rng.Intn(2))%len(kinds)]())}
	}
	return items
}

// encoded returns req with every item's set passed through intset's
// encoding and scan, held as its encoding as a decoded request holds it,
// and how many items it encoded. A set with a negative index has no
// encoding, and no decoded request can hold one, so such an item stays
// held.
func encoded(req *Req2) (*Req2, int) {
	out := &Req2{Phase: req.Phase, IdxBits: req.IdxBits, Items: make([]Req2Item, len(req.Items))}
	n := 0
	for k, it := range req.Items {
		out.Items[k] = it
		set := it.Indices.Set()
		if lo, _ := set.Bounds(); lo < 0 {
			continue
		}
		sp, _, ok := intset.Scan(intset.AppendEncoding(nil, set))
		if !ok {
			panic(fmt.Sprintf("the encoding of %v does not scan", set))
		}
		out.Items[k].Indices = sp.Lazy()
		n++
	}
	return out, n
}

func sentResp2(t *testing.T, p *Peer, to sim.PeerID) *Resp2 {
	t.Helper()
	c := rec(p)
	if !quiet(c, 1) || c.Sent[0].To != to {
		t.Fatalf("answerReq2 sent %+v (queries %v, output %v, terminated %v, phases %q), want one send to %d",
			c.Sent, c.Queries, c.Out, c.Terminated, c.Phases, to)
	}
	resp, ok := c.Sent[0].Msg.(*Resp2)
	if !ok {
		t.Fatalf("answerReq2 sent a %T", c.Sent[0].Msg)
	}
	return resp
}

// quiet reports whether the peer made exactly sends sends or broadcasts
// and no other call, a phase mark included.
func quiet(c *simtest.Ctx, sends int) bool {
	return len(c.Sent) == sends && len(c.Queries) == 0 && c.Out == nil && !c.Terminated && len(c.Phases) == 0
}

// requireSameResp2 compares two answers field by field.
func requireSameResp2(t *testing.T, label string, got, want *Resp2) {
	t.Helper()
	if got.Phase != want.Phase || got.IdxBits != want.IdxBits || len(got.Items) != len(want.Items) {
		t.Fatalf("%s: got (phase %d, idx %d, %d items), want (%d, %d, %d)", label,
			got.Phase, got.IdxBits, len(got.Items), want.Phase, want.IdxBits, len(want.Items))
	}
	if !reflect.DeepEqual(rangesOf(got.MeNeither), rangesOf(want.MeNeither)) {
		t.Fatalf("%s: me-neither %v, want %v", label, got.MeNeither, want.MeNeither)
	}
	if r := got.MeNeither.Ranges(); cap(r) != len(r) || cap(got.Items) != len(got.Items) {
		t.Fatalf("%s: %d me-neither runs in room for %d, %d items in room for %d", label,
			len(r), cap(r), len(got.Items), cap(got.Items))
	}
	for k, w := range want.Items {
		g := got.Items[k]
		if g.Q != w.Q || !reflect.DeepEqual(rangesOf(g.Indices), rangesOf(w.Indices)) {
			t.Fatalf("%s: item %d is (%d, %v), want (%d, %v)", label, k, g.Q, g.Indices, w.Q, w.Indices)
		}
		if g.Values == nil || !g.Values.Equal(w.Values) {
			t.Fatalf("%s: item %d values %v, want %v", label, k, g.Values, w.Values)
		}
	}
	if got.SizeBits() != want.SizeBits() {
		t.Fatalf("%s: SizeBits %d, want %d", label, got.SizeBits(), want.SizeBits())
	}
}

// TestAnswerReq2MatchesModel compares the one-ruling, one-arena answer with
// the per-item model, split into supplied items and the me-neither set, and
// its size with the per-item accounting: a peer word and a flag bit for
// every item, and set and values for a supplied one. Every request is
// answered twice, as built and with its items held as their encodings, as
// a decoded request holds them: the two answers are the model's.
func TestAnswerReq2MatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	encodedItems := 0
	for _, re := range []Reassign{ReassignHash, ReassignRotate} {
		for trial := 0; trial < 60; trial++ {
			L := 2 + rng.Intn(1500)
			n := 2 + rng.Intn(300)
			density := []float64{0, 0.3, 0.7, 1}[trial%4]
			p := partitionPeer(1, n, L, re)
			learnRandom(rng, p.track, density)
			// Two requests through one peer: the ruling scratch is reused.
			for _, k := range []int{1 + rng.Intn(40), rng.Intn(8)} {
				req := &Req2{Phase: 1 + rng.Intn(5), Items: req2Items(rng, p.track, n, k), IdxBits: p.idxBits}
				label := fmt.Sprintf("reassign=%d n=%d L=%d density=%.1f items=%d", re, n, L, density, len(req.Items))
				items := modelAnswer(p, req)
				perItem := headerBits
				for _, it := range items {
					perItem += p.idxBits + 1
					if !it.MeNeither {
						perItem += it.Indices.SizeBits(p.idxBits) + it.Values.Len()
					}
				}
				want := splitModel(req, p.idxBits, items)
				enc, n := encoded(req)
				encodedItems += n
				for _, c := range []struct {
					form string
					req  *Req2
				}{{"held", req}, {"encoded", enc}} {
					rec(p).Reset()
					p.answerReq2(7, c.req)
					got := sentResp2(t, p, 7)
					requireSameResp2(t, label+" "+c.form, got, want)
					if got.SizeBits() != perItem {
						t.Fatalf("%s %s: SizeBits %d, the per-item accounting says %d", label, c.form, got.SizeBits(), perItem)
					}
				}
			}
		}
	}
	if encodedItems < 1000 {
		t.Fatalf("only %d items were encoded: the requests do not exercise the encoded form", encodedItems)
	}
}

// TestFirstProbeRuling: a held item whose first index is a bit of [0, L)
// the peer does not know is ruled me-neither by that one probe, and every
// other item falls through to the full ruling. Each item below, alone and
// all together in one request, is answered as the model answers it: the
// probe's own case, a known first index with an unknown one after it,
// a first index below 0 and one at L, and the empty set.
func TestFirstProbeRuling(t *testing.T) {
	const n, L = 8, 256
	p := partitionPeer(1, n, L, ReassignHash)
	ones := bitarray.New(L)
	ones.Fill(true)
	p.track.LearnRange(10, 20, ones, 10) // bits 10..19 known, the rest not
	all := &Req2{Phase: 2, IdxBits: p.idxBits}
	for k, c := range []struct {
		name  string
		set   intset.Set
		probe bool // whether the one probe rules it
	}{
		{"first unknown", intset.FromSorted([]int{5, 10, 11}), true},
		{"first known, a later one unknown", intset.FromSorted([]int{10, 12, 30}), false},
		{"first known, all known", intset.FromRange(12, 18), false},
		{"first below 0", intset.FromRange(-2, 3), false},
		{"first at L", intset.FromRange(L, L+2), false},
		{"first below 0, the rest known", intset.FromSorted([]int{-1, 10, 11}), false},
		{"empty", intset.Set{}, false},
	} {
		if got := p.firstUnknown(c.set, L); got != c.probe {
			t.Errorf("%s %v: firstUnknown = %v, want %v", c.name, c.set, got, c.probe)
		}
		req := &Req2{Phase: 2, IdxBits: p.idxBits, Items: []Req2Item{{Q: 3, Indices: intset.Hold(c.set)}}}
		rec(p).Reset()
		p.answerReq2(7, req)
		requireSameResp2(t, c.name, sentResp2(t, p, 7), splitModel(req, p.idxBits, modelAnswer(p, req)))
		all.Items = append(all.Items, Req2Item{Q: sim.PeerID(k), Indices: intset.Hold(c.set)})
	}
	rec(p).Reset()
	p.answerReq2(7, all)
	requireSameResp2(t, "all together", sentResp2(t, p, 7), splitModel(all, p.idxBits, modelAnswer(p, all)))
}

// TestMalformedReq2GetsNoAnswer: a request whose peers are not strictly
// increasing, or lie outside [0, N), is not answered — wherever in the
// request the offending peer is.
func TestMalformedReq2GetsNoAnswer(t *testing.T) {
	const n, L = 16, 512
	p := partitionPeer(1, n, L, ReassignHash)
	learnRandom(rand.New(rand.NewSource(5)), p.track, 0.5)
	item := func(q int) Req2Item {
		return Req2Item{Q: sim.PeerID(q), Indices: intset.Hold(intset.FromRange(q, q+3))}
	}
	for _, c := range []struct {
		name string
		qs   []int
	}{
		{"duplicate", []int{2, 3, 3, 9}},
		{"decreasing", []int{2, 9, 3}},
		{"decreasing at the start", []int{5, 4}},
		{"negative", []int{-1, 3}},
		{"negative after others", []int{1, 3, -2}},
		{"N", []int{3, n}},
		{"beyond N", []int{n + 7}},
	} {
		req := &Req2{Phase: 1, IdxBits: p.idxBits}
		for _, q := range c.qs {
			req.Items = append(req.Items, item(q))
		}
		rec(p).Reset()
		p.answerReq2(7, req)
		if r := rec(p); !quiet(r, 0) {
			t.Errorf("%s %v: answered with %+v (phases %q)", c.name, c.qs, r.Sent, r.Phases)
		}
	}
	// The same peers in order are answered: it is the order that was refused.
	rec(p).Reset()
	p.answerReq2(7, &Req2{Phase: 1, IdxBits: p.idxBits, Items: []Req2Item{item(0), item(3), item(n - 1)}})
	sentResp2(t, p, 7)
}

// allocatedBytes is the average bytes one call of f allocates. The counter
// is the process's, so it is averaged over runs.
func allocatedBytes(runs int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestAnswerReq2AllocBudget: an all-me-neither answer is the message and
// one range array, and when the silent peers form one run its bytes do not
// grow with their number, whether the request holds its items in memory or
// as their encodings; a mixed answer adds the item slice and the arena's
// slab and array headers.
func TestAnswerReq2AllocBudget(t *testing.T) {
	const n, L = 128, 1 << 12
	rng := rand.New(rand.NewSource(17))
	p := partitionPeer(1, n, L, ReassignHash)
	learnRandom(rng, p.track, 0.6)
	unknown := randomSubset(rng, p.track, 0, 0.5)
	measure := func(req *Req2) (allocs float64, bytes uint64) {
		p.answerReq2(7, req) // sizes the scratch and the recorder's send list
		run := func() {
			rec(p).Reset()
			p.answerReq2(7, req)
		}
		return testing.AllocsPerRun(20, run), allocatedBytes(200, run)
	}
	oneRun := make(map[int]uint64)
	for _, k := range []int{8, 120} {
		req := &Req2{Phase: 2, IdxBits: p.idxBits}
		for q := 3; q < 3+k; q++ {
			req.Items = append(req.Items, Req2Item{Q: sim.PeerID(q), Indices: intset.Hold(unknown)})
		}
		allocs, bytes := measure(req)
		if allocs > 2 {
			t.Errorf("%d me-neither peers in one run: %.0f allocations, budget 2", k, allocs)
		}
		oneRun[k] = bytes
		enc, _ := encoded(req)
		if allocs, bytes := measure(enc); allocs > 2 || bytes > oneRun[k]+16 {
			t.Errorf("%d encoded me-neither peers in one run: %.0f allocations and %d B, budget 2 and %d B",
				k, allocs, bytes, oneRun[k]+16)
		}
		scattered := &Req2{Phase: 2, IdxBits: p.idxBits, Items: req2Items(rng, p.track, n, k)}
		if allocs, _ := measure(scattered); allocs > 5 {
			t.Errorf("%d mixed items: %.0f allocations, budget 5", len(scattered.Items), allocs)
		}
	}
	// 16 B of slack for whatever else the process allocated meanwhile; the
	// old answer, 48 B an item, would differ by more than 5 KB.
	if oneRun[120] > oneRun[8]+16 {
		t.Errorf("one run of me-neither peers: %d B at 8 peers, %d B at 120", oneRun[8], oneRun[120])
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
