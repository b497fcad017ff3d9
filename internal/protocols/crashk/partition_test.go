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
		heard:   make([]bool, n),
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
// increasing order, appended to its owner's list, which is the phase's
// request to that owner.
func modelPartition(p *Peer, r int) []Req1 {
	n, L := p.ctx.N(), p.ctx.L()
	per := make([][]int, n)
	for x := 0; x < L; x++ {
		if !p.track.Known(x) {
			o := owner(p.opts.Reassign, r, x, L, n)
			per[o] = append(per[o], x)
		}
	}
	reqs := make([]Req1, n)
	for i, idx := range per {
		reqs[i] = Req1{Phase: r, Indices: intset.FromSorted(idx), IdxBits: p.idxBits}
	}
	return reqs
}

func rangesOf(s intset.Set) []intset.Range {
	return append([]intset.Range(nil), s.Ranges()...) // nil for every empty set
}

// snapshot copies every request's ranges, to compare after the requests
// were sent: a sent request is never written again.
func snapshot(reqs []Req1) [][]intset.Range {
	out := make([][]intset.Range, len(reqs))
	for i, q := range reqs {
		out[i] = rangesOf(q.Indices)
	}
	return out
}

func requireSameReqs(t *testing.T, label string, got, want []Req1) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d requests, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Phase != want[i].Phase || got[i].IdxBits != want[i].IdxBits {
			t.Fatalf("%s: owner %d's request is phase %d with %d-bit indices, want phase %d with %d",
				label, i, got[i].Phase, got[i].IdxBits, want[i].Phase, want[i].IdxBits)
		}
		if !reflect.DeepEqual(rangesOf(got[i].Indices), rangesOf(want[i].Indices)) {
			t.Fatalf("%s: owner %d has %v, want %v", label, i, got[i].Indices, want[i].Indices)
		}
		// Counted exactly: the backing is carved into just what each holds.
		if r := got[i].Indices.Ranges(); cap(r) != len(r) {
			t.Fatalf("%s: owner %d holds %d ranges in room for %d", label, i, len(r), cap(r))
		}
	}
}

// TestPartitionMatchesModel checks the two-walk, one-backing partition
// against the per-owner FromSorted model, stage 3's narrowed sets against a
// fresh partition taken at that moment, and that stage 3 left the phase's
// requests, which went out at startPhase, as they were.
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
					requireSameReqs(t, label, got, modelPartition(p, r))
					sent := snapshot(got)
					// Later in the phase: more bits known, some peers heard.
					p.phase, p.stage, p.reqs = r, stWait1, got
					learnRandom(rng, p.track, 0.3)
					for j := 0; j < n; j++ {
						if rng.Intn(3) == 0 {
							p.heard[sim.PeerID(j)] = true
						}
					}
					fresh := modelPartition(p, r)
					var want []Req2Item
					for j, q := range fresh {
						if id := sim.PeerID(j); id != p.ctx.ID() && !p.heard[id] && !q.Indices.Empty() {
							want = append(want, Req2Item{Q: id, Indices: intset.Hold(q.Indices)})
						}
					}
					p.enterWait2()
					for o, q := range got {
						if !reflect.DeepEqual(rangesOf(q.Indices), sent[o]) {
							t.Fatalf("%s: stage 3 rewrote owner %d's sent request: %v, sent as %v", label, o, q.Indices, sent[o])
						}
					}
					var req2 *Req2
					for _, s := range rec(p).Sent {
						if s.To == simtest.Broadcast {
							if req, ok := s.Msg.(*Req2); ok && req2 == nil {
								req2 = req
							}
						}
					}
					if len(want) == 0 {
						if req2 != nil {
							t.Fatalf("%s: Req2 broadcast with nothing missing: %v", label, req2.Items)
						}
						continue
					}
					if req2 == nil {
						t.Fatalf("%s: no Req2 broadcast, want %d items", label, len(want))
					}
					if len(req2.Items) != len(want) || cap(req2.Items) != len(want) {
						t.Fatalf("%s: Req2 has %d items (cap %d), want exactly %d",
							label, len(req2.Items), cap(req2.Items), len(want))
					}
					for k, it := range req2.Items {
						set, held := it.Indices.Held()
						if !held {
							t.Fatalf("%s: item %d is not held in memory", label, k)
						}
						if it.Q != want[k].Q || !reflect.DeepEqual(rangesOf(set), rangesOf(want[k].Indices.Set())) {
							t.Fatalf("%s: item %d is (%d, %v), want (%d, %v)",
								label, k, it.Q, it.Indices, want[k].Q, want[k].Indices)
						}
						if r := set.Ranges(); cap(r) != len(r) {
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
		p.phase, p.stage, p.reqs = r, stWait1, p.unknownByOwner(r)
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
// the backing array and the requests and nothing else, whatever L is and in
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

// TestStartPhaseAllocBudget: a phase's start allocates the partition's two
// and the list of its own bits it queries, and nothing else — the requests
// it sends are the partition's own entries.
func TestStartPhaseAllocBudget(t *testing.T) {
	for _, L := range []int{1 << 10, 1 << 16} {
		for _, r := range []int{1, 2} {
			p := partitionPeer(3, 16, L, ReassignHash)
			for x := 0; x < L; x += 2 {
				p.track.Learn(x, true) // every owner's share is unknown odd bits
			}
			rc := rec(p)
			allocs := testing.AllocsPerRun(10, func() {
				rc.Reset()
				p.startPhase(r)
			})
			if len(rc.Queries) != 1 || len(rc.Sent) != 15 {
				t.Fatalf("L=%d phase %d: %d queries and %d sends, want 1 and 15", L, r, len(rc.Queries), len(rc.Sent))
			}
			if allocs != 3 {
				t.Errorf("L=%d phase %d: startPhase allocated %.0f times, want 3", L, r, allocs)
			}
			for k, s := range rc.Sent {
				to := sim.PeerID(k) // in id order, skipping the peer itself
				if to >= p.ctx.ID() {
					to++
				}
				if s.To != to || s.Msg != &p.reqs[to] {
					t.Fatalf("L=%d phase %d: send %d to %d is not peer %d's partition entry", L, r, k, s.To, to)
				}
			}
		}
	}
}

// TestStillUnknownSharesUntouchedSet: a silent peer's set none of whose
// bits was learned goes into the Req2 as it is, without a copy.
func TestStillUnknownSharesUntouchedSet(t *testing.T) {
	p := partitionPeer(0, 16, 1<<12, ReassignHash)
	learnRandom(rand.New(rand.NewSource(4)), p.track, 0.5)
	reqs := p.unknownByOwner(2)
	if allocs := testing.AllocsPerRun(10, func() {
		for _, q := range reqs {
			s := q.Indices
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
			requireSameReqs(t, label, got, modelPartition(p, 1))
			covered := 0
			for _, q := range got {
				covered += q.Indices.Len()
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
		p.needs = []Req2Item{{Q: 1, Indices: intset.Hold(intset.FromRange(20, 30))}, {Q: 2, Indices: intset.Hold(b.Set())}}
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
