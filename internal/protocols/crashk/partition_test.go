package crashk

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bitarray"
	"repro/internal/intset"
	"repro/internal/sim"
	"repro/internal/sim/simtest"
)

// partitionPeer returns a peer far enough into Init for the partition
// code to run: a recording context and an all-unknown tracker.
func partitionPeer(id sim.PeerID, n, L int, re Reassign) *Peer {
	return &Peer{
		ctx:     simtest.New(id, n, 0, L),
		opts:    Options{Reassign: re, Threshold: 1, MaxPhases: 64},
		track:   bitarray.NewTracker(L),
		idxBits: indexBits(L),
		heard:   make(map[sim.PeerID]bool),
		defer1:  make(map[int][]deferred1),
		defer2:  make(map[int][]deferred2),
	}
}

// rec returns the recording context of a peer made by partitionPeer.
func rec(p *Peer) *simtest.Ctx { return p.ctx.(*simtest.Ctx) }

// learnRandom marks a random mix of single bits and runs as known.
func learnRandom(rng *rand.Rand, tr *bitarray.Tracker, density float64) {
	L := tr.Len()
	ones := bitarray.New(L)
	for x := 0; x < L; {
		switch {
		case rng.Float64() >= density:
			x++
		case rng.Intn(4) == 0:
			hi := min(L, x+1+rng.Intn(100))
			tr.LearnRange(x, hi, ones, x)
			x = hi
		default:
			tr.Learn(x, rng.Intn(2) == 0)
			x++
		}
	}
}

// modelPartition is the partition's definition: every unknown bit, in
// increasing order, appended to its owner's list.
func modelPartition(p *Peer, r int) []intset.Set {
	n, L := p.ctx.N(), p.ctx.L()
	per := make([][]int, n)
	for x := 0; x < L; x++ {
		if !p.track.Known(x) {
			o := owner(p.opts.Reassign, r, x, L, n)
			per[o] = append(per[o], x)
		}
	}
	sets := make([]intset.Set, n)
	for i, idx := range per {
		sets[i] = intset.FromSorted(idx)
	}
	return sets
}

func rangesOf(s intset.Set) []intset.Range {
	return append([]intset.Range(nil), s.Ranges()...) // nil for every empty set
}

func requireSameSets(t *testing.T, label string, got, want []intset.Set) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d sets, want %d", label, len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(rangesOf(got[i]), rangesOf(want[i])) {
			t.Fatalf("%s: owner %d has %v, want %v", label, i, got[i], want[i])
		}
		// Counted exactly: the backing is carved into just what each holds.
		if r := got[i].Ranges(); cap(r) != len(r) {
			t.Fatalf("%s: owner %d holds %d ranges in room for %d", label, i, len(r), cap(r))
		}
	}
}

// TestPartitionMatchesModel checks the two-walk, one-backing partition
// against the per-owner FromSorted model, and stage 3's narrowed sets
// against a fresh partition taken at that moment.
func TestPartitionMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, re := range []Reassign{ReassignHash, ReassignRotate} {
		for _, n := range []int{1, 2, 16, 128} {
			for _, r := range []int{1, 2, 7} {
				for trial := 0; trial < 12; trial++ {
					L := 1 + rng.Intn(3000)
					density := []float64{0, 0.05, 0.5, 0.95, 1}[trial%5]
					label := fmt.Sprintf("reassign=%d n=%d r=%d L=%d density=%.2f", re, n, r, L, density)
					p := partitionPeer(sim.PeerID(rng.Intn(n)), n, L, re)
					learnRandom(rng, p.track, density)

					got := p.unknownByOwner(r)
					requireSameSets(t, label, got, modelPartition(p, r))
					// Later in the phase: more bits known, some peers heard.
					p.phase, p.stage, p.byOwner = r, stWait1, got
					learnRandom(rng, p.track, 0.3)
					for j := 0; j < n; j++ {
						if rng.Intn(3) == 0 {
							p.heard[sim.PeerID(j)] = true
						}
					}
					fresh := modelPartition(p, r)
					var want []Req2Item
					for j, set := range fresh {
						if id := sim.PeerID(j); id != p.ctx.ID() && !p.heard[id] && !set.Empty() {
							want = append(want, Req2Item{Q: id, Indices: set})
						}
					}
					p.enterWait2()
					var sent *Req2
					for _, s := range rec(p).Sent {
						if s.To == simtest.Broadcast {
							if req, ok := s.Msg.(*Req2); ok && sent == nil {
								sent = req
							}
						}
					}
					if len(want) == 0 {
						if sent != nil {
							t.Fatalf("%s: Req2 broadcast with nothing missing: %v", label, sent.Items)
						}
						continue
					}
					if sent == nil {
						t.Fatalf("%s: no Req2 broadcast, want %d items", label, len(want))
					}
					if len(sent.Items) != len(want) || cap(sent.Items) != len(want) {
						t.Fatalf("%s: Req2 has %d items (cap %d), want exactly %d",
							label, len(sent.Items), cap(sent.Items), len(want))
					}
					for k, it := range sent.Items {
						if it.Q != want[k].Q || !reflect.DeepEqual(rangesOf(it.Indices), rangesOf(want[k].Indices)) {
							t.Fatalf("%s: item %d is (%d, %v), want (%d, %v)",
								label, k, it.Q, it.Indices, want[k].Q, want[k].Indices)
						}
						if r := it.Indices.Ranges(); cap(r) != len(r) {
							t.Fatalf("%s: item %d holds %d ranges in room for %d", label, k, len(r), cap(r))
						}
					}
				}
			}
		}
	}
}

// TestReq2PeersIncrease: whatever a peer knows and whomever it heard, the
// Req2 that enterWait2 broadcasts names silent peers of [0, N) in strictly
// increasing order — the order answerReq2 requires — so another honest
// peer always answers it.
func TestReq2PeersIncrease(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	sent := 0
	for trial := 0; trial < 400; trial++ {
		n, L, r := 2+rng.Intn(200), 1+rng.Intn(4000), 1+rng.Intn(6)
		re := []Reassign{ReassignHash, ReassignRotate}[trial%2]
		p := partitionPeer(sim.PeerID(rng.Intn(n)), n, L, re)
		learnRandom(rng, p.track, rng.Float64())
		p.phase, p.stage, p.byOwner = r, stWait1, p.unknownByOwner(r)
		heard := rng.Float64()
		for j := 0; j < n; j++ {
			if rng.Float64() < heard {
				p.heard[sim.PeerID(j)] = true
			}
		}
		p.enterWait2()
		var req *Req2
		for _, s := range rec(p).Sent {
			if m, ok := s.Msg.(*Req2); ok && s.To == simtest.Broadcast {
				req = m
			}
		}
		if req == nil {
			continue
		}
		sent++
		for k, it := range req.Items {
			if it.Q < 0 || int(it.Q) >= n || it.Q == p.ctx.ID() || p.heard[it.Q] || (k > 0 && it.Q <= req.Items[k-1].Q) {
				t.Fatalf("n=%d: item %d names peer %d after %v", n, k, it.Q, req.Items[:k])
			}
		}
		other := partitionPeer(sim.PeerID(rng.Intn(n)), n, L, re)
		learnRandom(rng, other.track, rng.Float64())
		other.answerReq2(p.ctx.ID(), req)
		resp := sentResp2(t, other, p.ctx.ID())
		if named := len(resp.Items) + resp.MeNeither.Len(); named != len(req.Items) {
			t.Fatalf("n=%d: answer names %d peers, the request %d", n, named, len(req.Items))
		}
	}
	if sent < 100 {
		t.Fatalf("only %d of 400 trials sent a Req2", sent)
	}
}

// TestPartitionAllocBudget pins the partition's allocations: after a
// peer's first phase, which sizes its per-owner scratch, a phase allocates
// the backing array and the sets and nothing else, whatever L is and in
// either kind of phase.
func TestPartitionAllocBudget(t *testing.T) {
	for _, L := range []int{1 << 10, 1 << 16} {
		for _, r := range []int{1, 2} {
			p := partitionPeer(3, 16, L, ReassignHash)
			learnRandom(rand.New(rand.NewSource(int64(L))), p.track, 0.5)
			if allocs := testing.AllocsPerRun(10, func() { p.unknownByOwner(r) }); allocs != 2 {
				t.Errorf("L=%d phase %d: unknownByOwner allocated %.0f times, want 2", L, r, allocs)
			}
		}
	}
}

// TestStillUnknownSharesUntouchedSet: a silent peer's set none of whose
// bits was learned goes into the Req2 as it is, without a copy.
func TestStillUnknownSharesUntouchedSet(t *testing.T) {
	p := partitionPeer(0, 16, 1<<12, ReassignHash)
	learnRandom(rand.New(rand.NewSource(4)), p.track, 0.5)
	sets := p.unknownByOwner(2)
	if allocs := testing.AllocsPerRun(10, func() {
		for _, s := range sets {
			if got := p.stillUnknown(s); got.RangeCount() != s.RangeCount() {
				t.Fatalf("untouched set changed: %v → %v", s, got)
			}
		}
	}); allocs != 0 {
		t.Errorf("stillUnknown copied an untouched set: %.0f allocations", allocs)
	}
}

// TestPhase1PartitionWalksBlocks: phase 1 takes each sim.BlockRange's
// unknown runs from the tracker instead of asking owner() per bit; the two
// must name the same partition where blocks are uneven (L not a multiple
// of N), empty (N > L), a single bit, and on a tracker that is already
// warm — a churn peer restarting from a checkpoint enters phase 1 knowing
// scattered bits and whole blocks.
func TestPhase1PartitionWalksBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, c := range []struct{ L, n int }{
		{1, 1}, {1, 16}, {5, 16}, {15, 16}, {16, 16}, {17, 16}, {100, 7},
		{1000, 16}, {4099, 128}, {65536 + 3, 16},
	} {
		warm := map[string]func(p *Peer){
			"cold":      func(*Peer) {},
			"scattered": func(p *Peer) { learnRandom(rng, p.track, 0.4) },
			"whole blocks": func(p *Peer) {
				ones := bitarray.New(c.L)
				for _, o := range []int{0, c.n / 2, c.n - 1} {
					lo, hi := sim.BlockRange(c.L, c.n, sim.PeerID(o))
					p.track.LearnRange(lo, hi, ones, lo)
				}
				learnRandom(rng, p.track, 0.05)
			},
			"complete": func(p *Peer) { p.track.LearnRange(0, c.L, bitarray.New(c.L), 0) },
		}
		for name, learn := range warm {
			p := partitionPeer(sim.PeerID(c.n-1), c.n, c.L, ReassignHash)
			learn(p)
			label := fmt.Sprintf("L=%d n=%d %s", c.L, c.n, name)
			got := p.unknownByOwner(1)
			requireSameSets(t, label, got, modelPartition(p, 1))
			covered := 0
			for _, s := range got {
				covered += s.Len()
			}
			if covered != p.track.UnknownCount() {
				t.Fatalf("%s: partition holds %d bits, %d are unknown", label, covered, p.track.UnknownCount())
			}
		}
	}
}

// TestNeedsSatisfiedStopsAtTheUnknownRange: the Fast early exit must say no
// wherever the one still-unknown range of its request lies — first, in the
// middle, or last, where a walk that stopped early for the wrong reason
// would not look — and yes once that range too is known.
func TestNeedsSatisfiedStopsAtTheUnknownRange(t *testing.T) {
	const L = 1 << 10
	ranges := [][2]int{{3, 9}, {64, 65}, {100, 300}, {511, 513}, {1000, 1024}}
	var b intset.Builder
	for _, r := range ranges {
		b.AddRange(r[0], r[1])
	}
	ones := bitarray.New(L)
	for hole := range ranges {
		p := partitionPeer(0, 16, L, ReassignHash)
		p.needs = []Req2Item{{Q: 1, Indices: intset.FromRange(20, 30)}, {Q: 2, Indices: b.Set()}}
		p.track.LearnRange(20, 30, ones, 20)
		for k, r := range ranges {
			if k != hole {
				p.track.LearnRange(r[0], r[1], ones, r[0])
			}
		}
		lo, hi := ranges[hole][0], ranges[hole][1]
		if p.needsSatisfied() {
			t.Fatalf("satisfied with range [%d,%d) unknown", lo, hi)
		}
		p.track.LearnRange(lo, hi-1, ones, lo) // all of it but its last bit
		if p.needsSatisfied() {
			t.Fatalf("satisfied with bit %d unknown", hi-1)
		}
		p.track.Learn(hi-1, true)
		if !p.needsSatisfied() {
			t.Fatalf("not satisfied with every requested bit known (hole was [%d,%d))", lo, hi)
		}
	}
}
