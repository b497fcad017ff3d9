package committee

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/bitarray"
	"repro/internal/sim"
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
	env   sim.Env
	input *bitarray.Array
	know  *sim.Knowledge
	peer  *Peer
	model *modelPeer
	em    sim.Emitter
	out   *bitarray.Array // what the peer output, once it did
}

func newRig(t *testing.T, n, tf, l int, weak bool, seed int64) *rig {
	rng := rand.New(rand.NewSource(seed))
	id := sim.PeerID(rng.Intn(n))
	r := &rig{t: t, label: fmt.Sprintf("n=%d t=%d L=%d weak=%v seed=%d", n, tf, l, weak, seed),
		env:   sim.Env{ID: id, N: n, T: tf, L: l},
		input: bitarray.Random(rng, l), peer: &Peer{weakAccept: weak}, model: newModel(id, n, tf, l, weak)}
	r.know = &sim.Knowledge{Input: r.input, Config: sim.Config{N: n, T: tf, L: l}}
	r.step(sim.Event{Kind: sim.EvInit})
	return r
}

func (r *rig) step(ev sim.Event) {
	r.em.Reset(false)
	r.peer.Step(&r.env, ev, &r.em)
	for _, a := range r.em.Actions() {
		if a.Kind == sim.ActOutput {
			r.out = a.Out
		}
	}
}

// reply delivers the peer's own query reply to both sides.
func (r *rig) reply() {
	mine := Assignments(r.env.ID, r.env.L, r.env.N, r.env.T)
	rep := sim.QueryReply{Indices: mine, Bits: r.input.Gather(mine)}
	r.step(sim.Event{Kind: sim.EvQueryReply, Reply: rep})
	r.model.onQueryReply(rep)
	r.compare("own reply")
}

func (r *rig) deliver(from sim.PeerID, rep *Report, what string) {
	r.model.onMessage(from, rep)
	r.step(sim.Event{Kind: sim.EvMessage, From: from, Msg: rep})
	r.compare(fmt.Sprintf("%s from %d", what, from))
}

func (r *rig) compare(after string) {
	r.t.Helper()
	p, m := r.peer, r.model
	if got, want := p.track.UnknownCount(), m.track.UnknownCount(); got != want {
		r.t.Fatalf("%s, after %s: %d unknown bits, model %d", r.label, after, got, want)
	}
	for i := 0; i < r.env.L; i++ {
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
	if p.done && (r.out == nil || !r.out.Equal(m.track.Snapshot())) {
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
// equal to the per-index loop's after every single message.
func TestTallyMatchesPerIndexLoop(t *testing.T) {
	for _, c := range tallyCells {
		for _, weak := range []bool{false, true} {
			for seed := int64(1); seed <= 6; seed++ {
				r := newRig(t, c.n, c.t, c.l, weak, seed)
				rng := rand.New(rand.NewSource(seed * 7919))
				senders := rng.Perm(c.n)
				senders = append(senders, senders[:c.n/3]...) // repeats are dropped
				replyAt := rng.Intn(len(senders))
				for j, s := range senders {
					if j == replyAt {
						r.reply()
					}
					from := sim.PeerID(s)
					honest := forge(from, r.know, false)
					switch roll := rng.Intn(10); {
					case roll < 4:
						r.deliver(from, honest, "honest")
					case roll < 6:
						r.deliver(from, forge(from, r.know, true), "liar")
					case roll < 7:
						r.deliver(from, forge(from, r.know, int(r.env.ID)%2 == 1), "equivocator")
					case roll < 8:
						r.deliver(from, honest.Forge(rng).(*Report), "forged")
					default:
						rep, name := hostile(rng, rng.Intn(hostileKinds), honest, c.l, c.n)
						r.deliver(from, rep, name)
					}
				}
			}
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
	env := sim.Env{ID: n - 1, N: n, T: tf, L: l}
	var em sim.Emitter
	p.Step(&env, sim.Event{Kind: sim.EvInit}, &em)
	lie := &Report{Indices: []int{0, 1, 2}, Bits: bitarray.FromBools([]bool{true, false, true}), IdxBits: 2}
	for s := 0; s < tf; s++ {
		em.Reset(false)
		p.Step(&env, sim.Event{Kind: sim.EvMessage, From: sim.PeerID(s), Msg: lie}, &em)
		if p.track.UnknownCount() != l {
			t.Fatalf("vote %d of a threshold of %d already taught %d bits", s+1, tf+1, l-p.track.UnknownCount())
		}
	}
	p.Step(&env, sim.Event{Kind: sim.EvMessage, From: tf, Msg: lie}, &em)
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

// TestOnMessageDoesNotAllocate: counting a report allocates nothing on
// either kind of schedule as long as it does not complete the peer.
func TestOnMessageDoesNotAllocate(t *testing.T) {
	for _, c := range []struct{ n, t, l int }{{128, 63, 2048}, {128, 32, 2048}} {
		r := newRig(t, c.n, c.t, c.l, false, 1)
		from := sim.PeerID((int(r.env.ID) + 1) % c.n)
		ev := sim.Event{Kind: sim.EvMessage, From: from, Msg: forge(from, r.know, false)}
		allocs := testing.AllocsPerRun(20, func() {
			delete(r.peer.seenReport, from)
			r.em.Reset(false)
			r.peer.Step(&r.env, ev, &r.em)
		})
		if allocs != 0 || r.peer.done {
			t.Errorf("n=%d t=%d: %v allocations per report (done %v), want 0", c.n, c.t, allocs, r.peer.done)
		}
	}
}

func benchCount(b *testing.B, n, tf, l int, runs bool) {
	input := bitarray.Random(rand.New(rand.NewSource(1)), l)
	know := &sim.Knowledge{Input: input, Config: sim.Config{N: n, T: tf, L: l}}
	reps := make([]*Report, n)
	for s := range reps {
		reps[s] = forge(sim.PeerID(s), know, false)
	}
	// The threshold is out of reach, so every pass counts every vote.
	tl := newTally(l, 4*n, CommitteeSize(tf), 4*n-1, bitarray.NewTracker(l))
	tl.n, tl.runs = n, runs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tl.count(sim.PeerID(i%n), reps[i%n])
	}
}

// BenchmarkCount prices one report on the two shapes of schedule, each on
// both scatter paths; the schedule picks the faster one (docs/PERF.md).
func BenchmarkCount(b *testing.B) {
	for _, c := range []struct{ n, t int }{{128, 63}, {128, 60}, {128, 56}, {128, 48}, {128, 32}, {256, 64}, {32, 3}} {
		for _, runs := range []bool{false, true} {
			b.Run(fmt.Sprintf("n=%d/t=%d/runs=%v", c.n, c.t, runs), func(b *testing.B) { benchCount(b, c.n, c.t, 2048, runs) })
		}
	}
}
