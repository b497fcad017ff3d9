package committee

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/bitarray"
	"repro/internal/sim"
	"repro/internal/sim/simtest"
)

// modelPeer is the per-index vote loop that tally replaced, kept as the
// reference model: one counter per (index, value), a membership division
// per index, a threshold comparison per vote. Its counters are ints — the
// int16 ones it had are the bug TestThresholdBeyondInt16 pins.
type modelPeer struct {
	n, t, l, accept int
	track           *bitarray.Tracker
	votes           [][2]int
	seen            map[sim.PeerID]bool
	reported, done  bool
}

func newModel(id sim.PeerID, n, t, l int, weak bool) *modelPeer {
	m := &modelPeer{n: n, t: t, l: l, accept: t + 1, track: bitarray.NewTracker(l),
		votes: make([][2]int, l), seen: map[sim.PeerID]bool{}}
	for i := 0; i < l && !m.reported; i++ {
		m.reported = modelInCommittee(id, i, n, t)
	}
	m.reported = !m.reported // nothing to report
	if weak && t >= 1 {
		m.accept = t
	}
	return m
}

func modelInCommittee(p sim.PeerID, i, n, t int) bool {
	s := 2*t + 1
	if s >= n {
		return true
	}
	d := (int(p) - i*s) % n
	if d < 0 {
		d += n
	}
	return d < s
}

func (m *modelPeer) onQueryReply(r sim.QueryReply) {
	if m.done {
		return
	}
	for k, idx := range r.Indices {
		m.track.LearnFromSource(idx, r.Bits.Get(k))
	}
	m.reported = true
	m.done = m.track.Complete()
}

func (m *modelPeer) onMessage(from sim.PeerID, rep *Report) {
	if m.done {
		return
	}
	if rep.Bits == nil || rep.Bits.Len() < len(rep.Indices) {
		return
	}
	if m.seen[from] {
		return
	}
	m.seen[from] = true
	prev := -1
	for k, idx := range rep.Indices {
		if idx <= prev || idx >= m.l {
			continue
		}
		prev = idx
		if !modelInCommittee(from, idx, m.n, m.t) {
			continue
		}
		v := 0
		if rep.Bits.Get(k) {
			v = 1
		}
		m.votes[idx][v]++
		if m.votes[idx][v] >= m.accept && !m.track.Known(idx) {
			m.track.Learn(idx, v == 1)
		}
	}
	m.done = m.track.Complete() && m.reported
}

// votesFor decodes one bit-sliced counter: the planes' value minus the
// bias, modulo 2^planes.
func (t *tally) votesFor(i, v, accept int) int {
	c := 0
	for k := 0; k < t.planes; k++ {
		c |= int(t.cnt[(2*(i/64)+v)*t.planes+k]>>(i%64)&1) << k
	}
	return (c + accept) & (1<<t.planes - 1)
}

// rig drives a real Peer and the model with the same events and compares
// them after each one.
type rig struct {
	t     *testing.T
	label string
	ctx   *simtest.Ctx
	input *bitarray.Array
	know  *sim.Knowledge
	peer  *Peer
	model *modelPeer
}

func newRig(t *testing.T, n, tf, l int, weak bool, seed int64) *rig {
	rng := rand.New(rand.NewSource(seed))
	return newRigAt(t, sim.PeerID(rng.Intn(n)), n, tf, l, weak, seed, bitarray.Random(rng, l))
}

// newRigAt is newRig for a chosen receiver and input: rigs that share an
// input can be handed the same report objects.
func newRigAt(t *testing.T, id sim.PeerID, n, tf, l int, weak bool, seed int64, input *bitarray.Array) *rig {
	r := &rig{t: t, label: fmt.Sprintf("n=%d t=%d L=%d weak=%v seed=%d receiver=%d", n, tf, l, weak, seed, id),
		ctx:   simtest.New(id, n, tf, l),
		input: input, peer: &Peer{weakAccept: weak}, model: newModel(id, n, tf, l, weak)}
	r.know = &sim.Knowledge{Input: r.input, Config: sim.Config{N: n, T: tf, L: l}}
	r.peer.Init(r.ctx)
	return r
}

// reply delivers the peer's own query reply to both sides.
func (r *rig) reply() {
	mine := Assignments(r.ctx.ID(), r.ctx.L(), r.ctx.N(), r.ctx.T())
	rep := sim.QueryReply{Indices: mine, Bits: r.input.Gather(mine)}
	r.peer.OnQueryReply(rep)
	r.model.onQueryReply(rep)
	r.compare("own reply")
}

func (r *rig) deliver(from sim.PeerID, rep *Report, what string) {
	counts := !r.peer.done && !r.peer.seenReport[from] && rep.Bits != nil && rep.Bits.Len() >= len(rep.Indices)
	r.model.onMessage(from, rep)
	r.peer.OnMessage(from, rep)
	r.compare(fmt.Sprintf("%s from %d", what, from))
	if counts {
		r.checkBallot(from, rep, what)
	}
}

// unshared returns a Report with rep's fields and no ballot.
func unshared(rep *Report) *Report {
	return &Report{Indices: rep.Indices, Bits: rep.Bits, IdxBits: rep.IdxBits}
}

// checkBallot holds the ballot a counted report now carries to its form:
// keyed as it was just used, one entry per word voted in, ascending, no
// value without a vote, and entry for entry what a scatter of an unshared
// copy of the report gives.
func (r *rig) checkBallot(from sim.PeerID, rep *Report, what string) {
	r.t.Helper()
	tl := r.peer.votes
	key := ballotKey{from, tl.l, tl.n, tl.s}
	b := rep.ballot.Load()
	if b == nil || b.key != key {
		r.t.Fatalf("%s: %s from %d left ballot %+v, want one keyed %+v", r.label, what, from, b, key)
	}
	fresh := tl.scatter(key, unshared(rep))
	if !slices.Equal(b.words, fresh.words) {
		r.t.Fatalf("%s: %s from %d: ballot %v, a fresh scatter gives %v", r.label, what, from, b.words, fresh.words)
	}
	if cap(b.words) > min((tl.l+63)/64, len(rep.Indices)) {
		r.t.Fatalf("%s: %s from %d: ballot sized %d for L=%d and %d indices", r.label, what, from, cap(b.words), tl.l, len(rep.Indices))
	}
	for k, v := range b.words {
		if v.any == 0 || v.one&^v.any != 0 || v.w < 0 || v.w >= (tl.l+63)/64 || (k > 0 && v.w <= b.words[k-1].w) {
			r.t.Fatalf("%s: %s from %d: ballot entry %d of %v is not in form", r.label, what, from, k, b.words)
		}
	}
}

func (r *rig) compare(after string) {
	r.t.Helper()
	p, m := r.peer, r.model
	if got, want := p.track.UnknownCount(), m.track.UnknownCount(); got != want {
		r.t.Fatalf("%s, after %s: %d unknown bits, model %d", r.label, after, got, want)
	}
	for i := 0; i < r.ctx.L(); i++ {
		gv, gk := p.track.Get(i)
		mv, mk := m.track.Get(i)
		if gk != mk || gv != mv {
			r.t.Fatalf("%s, after %s: bit %d is (%v, known %v), model (%v, known %v)", r.label, after, i, gv, gk, mv, mk)
		}
		if p.done {
			continue // a finished peer counts no further votes; neither side is asked to
		}
		for v := 0; v < 2; v++ {
			if got, want := p.votes.votesFor(i, v, m.accept), m.votes[i][v]; got != want {
				r.t.Fatalf("%s, after %s: %d votes for bit %d = %d, model %d", r.label, after, got, i, v, want)
			}
		}
	}
	if p.done != m.done {
		r.t.Fatalf("%s, after %s: done %v, model %v", r.label, after, p.done, m.done)
	}
	if p.done && (r.ctx.Out == nil || !r.ctx.Out.Equal(m.track.Snapshot())) {
		r.t.Fatalf("%s, after %s: output differs from the model's tracker", r.label, after)
	}
}

// hostile builds a malformed report out of sender p's honest one. Every
// shape must count exactly as the per-index loop counted it.
func hostile(rng *rand.Rand, kind int, honest *Report, l, n int) (*Report, string) {
	idx := append([]int(nil), honest.Indices...)
	name := ""
	switch kind {
	case 0:
		name = "unsorted"
		rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
	case 1:
		name = "duplicated"
		idx = append(idx, idx...)
		sort.Ints(idx)
	case 2:
		name = "out of range at both ends"
		idx = append([]int{-1 << 62, -l, -1}, idx...)
		idx = append(idx, l, l+1, l+63, l+64, 1<<62)
	case 3:
		name = "every index, member or not"
		idx = idx[:0]
		for i := 0; i < l; i++ {
			idx = append(idx, i)
		}
	case 4:
		name = "jumps inside and past the incremental window"
		idx = idx[:0]
		for i := rng.Intn(3); i < l; i += 1 + rng.Intn(2*n) {
			idx = append(idx, i)
		}
	case 5:
		name = "random indices"
		idx = make([]int, rng.Intn(2*l+1))
		for k := range idx {
			idx[k] = rng.Intn(3*l) - l
		}
	case 6:
		name = "runs broken by repeats and steps back"
		idx = idx[:0]
		for i := 0; i < l; i++ {
			idx = append(idx, i)
			if rng.Intn(9) == 0 {
				idx = append(idx, i-rng.Intn(3))
			}
		}
	case 7:
		name = "bits longer than indices"
		return &Report{Indices: idx, Bits: bitarray.Random(rng, len(idx)+1+rng.Intn(130)), IdxBits: honest.IdxBits}, name
	case 8:
		name = "bits shorter than indices"
		if len(idx) == 0 {
			idx = []int{0}
		}
		return &Report{Indices: idx, Bits: bitarray.Random(rng, len(idx)-1), IdxBits: honest.IdxBits}, name
	case 9:
		name = "nil bits"
		return &Report{Indices: idx, IdxBits: honest.IdxBits}, name
	default:
		name = "empty"
		idx = nil
	}
	return &Report{Indices: idx, Bits: bitarray.Random(rng, len(idx)), IdxBits: honest.IdxBits}, name
}

const hostileKinds = 11

var tallyCells = []struct{ n, t, l int }{
	{4, 1, 70}, {16, 5, 200}, {32, 8, 333}, {128, 63, 700}, {256, 64, 520},
	{7, 3, 130},  // s = n: everyone sits on every committee
	{33, 15, 64}, // s = 31 of 33 and L a whole word
	{5, 1, 1}, {3, 1, 0},
}

// TestTallyMatchesPerIndexLoop is the model check: honest, Liar,
// Equivocator, Forge'd and hostile reports, in random order and with
// repeated senders, leave tracker, vote counts, completion and output
// equal to the per-index loop's after every single message. Reports are
// shared the way des shares them: every report object goes to
// three receivers with different ids (two of one parity, one of the other,
// so the Equivocator's two objects are both in play), and a third of the
// senders are Byzantine relays that pass on an honest peer's very pointer
// under their own id — before, after or between that pointer's honest
// deliveries.
func TestTallyMatchesPerIndexLoop(t *testing.T) {
	for _, c := range tallyCells {
		for _, weak := range []bool{false, true} {
			for seed := int64(1); seed <= 6; seed++ {
				rng := rand.New(rand.NewSource(seed * 7919))
				input := bitarray.Random(rng, c.l)
				first := rng.Intn(c.n)
				var rigs [3]*rig
				for k := range rigs {
					rigs[k] = newRigAt(t, sim.PeerID((first+k)%c.n), c.n, c.t, c.l, weak, seed, input)
				}
				know := rigs[0].know
				honest := make([]*Report, c.n)
				for s := range honest {
					honest[s] = forge(sim.PeerID(s), know, false)
				}
				senders := rng.Perm(c.n)
				senders = append(senders, senders[:c.n/3]...) // repeats are dropped
				replyAt := rng.Intn(len(senders))
				for j, s := range senders {
					from := sim.PeerID(s)
					what, rep := "honest", [2]*Report{honest[s], honest[s]} // by the receiver's parity
					switch roll := rng.Intn(15); {
					case roll < 4:
					case roll < 6:
						what, rep[0] = "liar", forge(from, know, true)
						rep[1] = rep[0]
					case roll < 7:
						what, rep[1] = "equivocator", forge(from, know, true)
					case roll < 8:
						what, rep[0] = "forged", honest[s].Forge(rng).(*Report)
						rep[1] = rep[0]
					case roll < 10:
						rep[0], what = hostile(rng, rng.Intn(hostileKinds), honest[s], c.l, c.n)
						rep[1] = rep[0]
					default:
						what, rep[0] = "relayed", honest[rng.Intn(c.n)]
						rep[1] = rep[0]
					}
					for _, r := range rigs {
						if j == replyAt {
							r.reply()
						}
						r.deliver(from, rep[int(r.ctx.ID())%2], what)
					}
				}
			}
		}
	}
}

// TestReportReusedAcrossCells counts one Report under tallies of different
// (L, n, s) and senders, twice around — a fixture reused across cells, or a
// pointer relayed between runs. Each count must equal the count of an
// unshared copy: a ballot built under another key is never cast.
func TestReportReusedAcrossCells(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	know := &sim.Knowledge{Input: bitarray.Random(rng, 700), Config: sim.Config{N: 128, T: 63, L: 700}}
	every, _ := hostile(rng, 3, forge(5, know, false), 700, 128)
	cells := []struct {
		from    sim.PeerID
		l, n, t int
	}{ // each differs from the one before it in a single part of the key
		{5, 700, 128, 63}, {5, 650, 128, 63}, {5, 650, 127, 63}, {5, 650, 127, 62}, {6, 650, 127, 62}, {6, 64, 16, 2}, {5, 700, 128, 63}}
	for _, rep := range []*Report{forge(5, know, false), every} {
		for round := 0; round < 2; round++ {
			for _, c := range cells {
				shared := newTally(c.l, c.n, CommitteeSize(c.t), c.t+1, bitarray.NewTracker(c.l))
				alone := newTally(c.l, c.n, CommitteeSize(c.t), c.t+1, bitarray.NewTracker(c.l))
				for k := 0; k <= c.t; k++ { // t+1 identical counts carry every bit voted on
					shared.count(c.from, rep)
					alone.count(c.from, unshared(rep))
				}
				if !slices.Equal(shared.cnt, alone.cnt) || !shared.track.Snapshot().Equal(alone.track.Snapshot()) ||
					shared.track.UnknownCount() != alone.track.UnknownCount() {
					t.Fatalf("round %d, from=%d L=%d n=%d t=%d: a shared report counted differently from an unshared copy (%d unknown, want %d)",
						round, c.from, c.l, c.n, c.t, shared.track.UnknownCount(), alone.track.UnknownCount())
				}
			}
		}
	}
}

// TestSharedReportRace shares reports across goroutines, as des's sharing
// pattern would on concurrent recipients: eight goroutines, each with its
// own tally, count the same 128 report objects in eight different orders
// — on two cells, so that lookups under a foreign key race with the rest. With at most t liars the final
// state does not depend on the order, and every goroutine's counters and
// tracker must equal those of a sequential count of unshared reports.
// Meant for `make race`; without the detector it still checks the values.
func TestSharedReportRace(t *testing.T) {
	const n, tf, workers = 128, 63, 8
	ls := [2]int{2048, 1000}
	know := &sim.Knowledge{Input: bitarray.Random(rand.New(rand.NewSource(8)), ls[0]), Config: sim.Config{N: n, T: tf, L: ls[0]}}
	build := func() []*Report {
		reps := make([]*Report, n)
		for s := range reps {
			reps[s] = forge(sim.PeerID(s), know, s%3 == 0 && s/3 < tf)
		}
		return reps
	}
	run := func(l int, reps []*Report, order []int) *tally {
		tl := newTally(l, n, CommitteeSize(tf), tf+1, bitarray.NewTracker(l))
		for _, s := range order {
			tl.count(sim.PeerID(s), reps[s])
		}
		return tl
	}
	var want [2]*tally
	for k, l := range ls {
		want[k] = run(l, build(), rand.New(rand.NewSource(1)).Perm(n))
		if !want[k].track.Complete() {
			t.Fatalf("L=%d: the sequential count left %d bits unknown", l, want[k].track.UnknownCount())
		}
	}
	shared := build()
	got := make([]*tally, workers)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = run(ls[g%2], shared, rand.New(rand.NewSource(int64(100+g))).Perm(n))
		}()
	}
	wg.Wait()
	for g, tl := range got {
		w := want[g%2]
		if !slices.Equal(tl.cnt, w.cnt) || !tl.track.Snapshot().Equal(w.track.Snapshot()) || tl.track.UnknownCount() != 0 {
			t.Errorf("goroutine %d (L=%d): counters or tracker differ from the sequential count (%d unknown)", g, ls[g%2], tl.track.UnknownCount())
		}
	}
}

// TestHostileShapesOneByOne delivers each hostile shape from each sender
// to a fresh peer on both kinds of schedule, so no shape hides behind the
// random mix above.
func TestHostileShapesOneByOne(t *testing.T) {
	for _, c := range []struct{ n, t, l int }{{128, 63, 700}, {64, 31, 257}, {32, 8, 333}, {16, 2, 200}} {
		for kind := 0; kind < hostileKinds; kind++ {
			r := newRig(t, c.n, c.t, c.l, false, int64(kind+1))
			rng := rand.New(rand.NewSource(int64(kind)))
			for s := 0; s < c.n; s++ {
				rep, name := hostile(rng, kind, forge(sim.PeerID(s), r.know, s%3 == 0), c.l, c.n)
				r.deliver(sim.PeerID(s), rep, name)
			}
		}
	}
}

// TestRunPathFollowsTheSchedule pins which schedules take the word-copy
// path: it is decided by s against n − s alone.
func TestRunPathFollowsTheSchedule(t *testing.T) {
	for _, c := range []struct {
		n, t int
		runs bool
	}{{128, 63, true}, {7, 3, true}, {128, 57, true}, {128, 56, false}, {256, 64, false}, {128, 32, false}, {32, 3, false}, {32, 12, false}} {
		if got := newTally(64, c.n, CommitteeSize(c.t), c.t+1, bitarray.NewTracker(64)).runs; got != c.runs {
			t.Errorf("n=%d t=%d: run path %v, want %v", c.n, c.t, got, c.runs)
		}
	}
}

// TestThresholdIsExact is the seeded safety property: with the threshold
// at t+1, t members telling the same lie never teach a wrong bit, at any
// point of any delivery order, and t+1 of them do; under NewWeak the same
// holds one lower, which is what makes it unsafe.
func TestThresholdIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(20250929))
	for round := 0; round < 60; round++ {
		n := 3 + rng.Intn(60)
		tf := 1 + rng.Intn((n-1)/2)
		l := 1 + rng.Intn(300)
		weak := round%2 == 1
		accept := tf + 1
		if weak {
			accept = tf
		}
		// The first accept members of committee 0 are peers 0..accept−1.
		for _, liars := range []int{accept - 1, accept} {
			r := newRig(t, n, tf, l, weak, int64(round))
			order := rng.Perm(n)
			if liars == accept {
				sort.Ints(order) // the liars first, so no honest vote can win the race
			}
			wrong := 0
			for _, s := range order {
				from := sim.PeerID(s)
				r.deliver(from, forge(from, r.know, s < liars), "report")
				wrong = 0
				for i := 0; i < l; i++ {
					if v, ok := r.peer.track.Get(i); ok && v != r.input.Get(i) {
						wrong++
					}
				}
				if liars < accept && wrong > 0 {
					t.Fatalf("%s: %d liars below the threshold %d taught %d wrong bits", r.label, liars, accept, wrong)
				}
			}
			if v, ok := r.peer.track.Get(0); liars == accept && (!ok || v == r.input.Get(0)) {
				t.Fatalf("%s: %d identical liars on committee 0 did not carry bit 0 (known %v)", r.label, liars, ok)
			}
		}
	}
}

// TestThresholdBeyondInt16: the threshold is t+1 for every t. With int16
// counters it went negative at t = 32,767 and the first vote was accepted.
func TestThresholdBeyondInt16(t *testing.T) {
	const tf, n, l = 33000, 2*33000 + 1, 3
	p := &Peer{}
	ctx := simtest.New(n-1, n, tf, l)
	p.Init(ctx)
	lie := &Report{Indices: []int{0, 1, 2}, Bits: bitarray.FromBools([]bool{true, false, true}), IdxBits: 2}
	for s := 0; s < tf; s++ {
		ctx.Reset()
		p.OnMessage(sim.PeerID(s), lie)
		if p.track.UnknownCount() != l {
			t.Fatalf("vote %d of a threshold of %d already taught %d bits", s+1, tf+1, l-p.track.UnknownCount())
		}
	}
	p.OnMessage(tf, lie)
	if !p.track.Complete() || !p.track.Snapshot().Equal(lie.Bits) {
		t.Fatalf("vote %d did not carry: %d bits unknown", tf+1, p.track.UnknownCount())
	}
}

func TestAssignmentsExact(t *testing.T) {
	for _, c := range tallyCells {
		for p := 0; p < c.n; p++ {
			got := Assignments(sim.PeerID(p), c.l, c.n, c.t)
			var want []int
			for i := 0; i < c.l; i++ {
				if modelInCommittee(sim.PeerID(p), i, c.n, c.t) {
					want = append(want, i)
				}
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("n=%d t=%d L=%d peer %d: %v, want %v", c.n, c.t, c.l, p, got, want)
			}
			if cap(got) != len(got) {
				t.Fatalf("n=%d t=%d L=%d peer %d: cap %d for %d indices", c.n, c.t, c.l, p, cap(got), len(got))
			}
		}
	}
}

// TestOnMessageDoesNotAllocate states both halves of a report's cost. Its
// first delivery in a process builds the ballot: at most two allocations
// (the ballot and its word list), the list sized from min(⌈L/64⌉,
// len(Indices)) so that a hostile report cannot grow it. Every later
// delivery, to this peer or another, allocates nothing. Neither completes
// the peer.
func TestOnMessageDoesNotAllocate(t *testing.T) {
	for _, c := range []struct{ n, t, l int }{{128, 63, 2048}, {128, 32, 2048}} {
		r := newRig(t, c.n, c.t, c.l, false, 1)
		from := sim.PeerID((int(r.ctx.ID()) + 1) % c.n)
		honest := forge(from, r.know, false)
		every, _ := hostile(rand.New(rand.NewSource(1)), 3, honest, c.l, c.n)
		long, _ := hostile(rand.New(rand.NewSource(1)), 1, every, c.l, c.n) // 2L indices
		for _, rep := range []*Report{honest, every, long} {
			step := func() {
				delete(r.peer.seenReport, from)
				r.ctx.Reset()
				r.peer.OnMessage(from, rep)
			}
			// AllocsPerRun's warm-up call would hide a first delivery, so
			// every run is made one.
			first := testing.AllocsPerRun(20, func() {
				rep.ballot.Store(nil)
				step()
			})
			later := testing.AllocsPerRun(20, step)
			if first > 2 || later != 0 || r.peer.done {
				t.Errorf("n=%d t=%d, %d indices: %v allocations at a first delivery, want ≤ 2; %v at a later one, want 0 (done %v)",
					c.n, c.t, len(rep.Indices), first, later, r.peer.done)
			}
			if b := rep.ballot.Load(); cap(b.words) > (c.l+63)/64 {
				t.Errorf("n=%d t=%d, %d indices: ballot sized for %d words of an array of %d", c.n, c.t, len(rep.Indices), cap(b.words), (c.l+63)/64)
			}
		}
	}
}

func benchCount(b *testing.B, n, tf, l int, runs, first bool) {
	input := bitarray.Random(rand.New(rand.NewSource(1)), l)
	know := &sim.Knowledge{Input: input, Config: sim.Config{N: n, T: tf, L: l}}
	reps := make([]*Report, n)
	for s := range reps {
		reps[s] = forge(sim.PeerID(s), know, false)
	}
	// The threshold is out of reach, so every pass counts every vote.
	tl := newTally(l, 4*n, CommitteeSize(tf), 4*n-1, bitarray.NewTracker(l))
	tl.n, tl.runs = n, runs
	for s, rep := range reps {
		tl.count(sim.PeerID(s), rep)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if first {
			reps[i%n].ballot.Store(nil) // a report this process has not counted yet
		}
		tl.count(sim.PeerID(i%n), reps[i%n])
	}
}

// BenchmarkCount prices one report on the two shapes of schedule, each on
// both scatter paths — the schedule picks the faster one (docs/PERF.md) —
// and in both halves: first is a report not counted before in this
// process (scatter, two allocations, cast), later is each of the other
// n − 2 deliveries of the same object on des (cast only). A
// socket receiver decodes its own copy and pays first every time.
func BenchmarkCount(b *testing.B) {
	for _, c := range []struct{ n, t int }{{128, 63}, {128, 60}, {128, 56}, {128, 48}, {128, 32}, {256, 64}, {32, 3}} {
		for _, runs := range []bool{false, true} {
			for _, half := range []string{"first", "later"} {
				b.Run(fmt.Sprintf("n=%d/t=%d/runs=%v/%s", c.n, c.t, runs, half), func(b *testing.B) { benchCount(b, c.n, c.t, 2048, runs, half == "first") })
			}
		}
	}
}
