package harden

import (
	"slices"
	"testing"

	"repro/internal/adversary"
	"repro/internal/bitarray"
	"repro/internal/des"
	"repro/internal/netrt"
	"repro/internal/protocols/committee"
	"repro/internal/sim"
)

// claimMsg is a minimal claiming message for collector tests.
type claimMsg struct {
	domain string
	key    int64
	value  uint64
}

func (m claimMsg) SizeBits() int { return 8 }
func (m claimMsg) Claims(dst []sim.Claim) []sim.Claim {
	return append(dst, sim.Claim{Domain: m.domain, Key: m.key, Value: m.value})
}

func send(c *Collector, at float64, from sim.PeerID, m sim.Message) {
	c.OnEvent(&sim.ObservedEvent{Time: at, Kind: "send", Peer: from, Other: 1, Msg: m})
}

func TestCollectorEquivocation(t *testing.T) {
	c := NewCollector(4, 0, nil)
	send(c, 1, 0, claimMsg{"seg", 7, 100})
	send(c, 2, 0, claimMsg{"seg", 7, 100}) // repeat, consistent
	send(c, 3, 0, claimMsg{"seg", 8, 200}) // different key
	send(c, 4, 2, claimMsg{"seg", 7, 999}) // other peer, conflicting value: fine
	if got := c.Equivocators(); len(got) != 0 {
		t.Fatalf("consistent claims flagged: %v", got)
	}
	send(c, 5, 0, claimMsg{"seg", 7, 101}) // conflict with its own time-1 claim
	got := c.Equivocators()
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("equivocators = %v, want [0]", got)
	}
	ev := c.Evidence()
	if len(ev) != 1 || ev[0].Peer != 0 || ev[0].Domain != "seg" || ev[0].Key != 7 {
		t.Fatalf("evidence = %v", ev)
	}
	// Once proven, further conflicts add no duplicate evidence.
	send(c, 6, 0, claimMsg{"seg", 8, 201})
	if len(c.Evidence()) != 1 {
		t.Fatalf("duplicate evidence for a known equivocator: %v", c.Evidence())
	}
}

func TestCollectorIgnoresNonClaimers(t *testing.T) {
	c := NewCollector(2, 0, nil)
	send(c, 1, 0, &adversary.Junk{Bits: 8})
	send(c, 2, 0, nil)
	if got := c.Equivocators(); len(got) != 0 {
		t.Fatalf("non-claiming messages flagged: %v", got)
	}
}

func TestCollectorStarvation(t *testing.T) {
	c := NewCollector(3, 10, nil)
	c.OnEvent(&sim.ObservedEvent{Time: 0, Kind: "start", Peer: 0})
	c.OnEvent(&sim.ObservedEvent{Time: 0, Kind: "start", Peer: 1})
	c.OnEvent(&sim.ObservedEvent{Time: 1, Kind: "phase", Peer: 0, Name: "download"})
	c.OnEvent(&sim.ObservedEvent{Time: 2, Kind: "terminate", Peer: 1})
	// Peer 2 never started; peer 1 terminated; peer 0 stalls in "download".
	c.OnEvent(&sim.ObservedEvent{Time: 50, Kind: "query", Peer: 1}) // advances the clock
	got := c.Starved()
	if len(got) != 1 || got[0].Peer != 0 || got[0].Phase != "download" {
		t.Fatalf("starved = %v, want peer 0 in download", got)
	}
	if got[0].Stalled != 49 {
		t.Fatalf("stalled = %v, want 49", got[0].Stalled)
	}
	// Progress resets the stall clock.
	c.OnEvent(&sim.ObservedEvent{Time: 55, Kind: "qreply", Peer: 0})
	if got := c.Starved(); len(got) != 0 {
		t.Fatalf("recently active peer still starved: %v", got)
	}
}

func TestCollectorChainsNext(t *testing.T) {
	var seen []string
	next := observerFunc(func(ev *sim.ObservedEvent) { seen = append(seen, ev.Kind) })
	c := NewCollector(2, 0, next)
	c.OnEvent(&sim.ObservedEvent{Time: 1, Kind: "start", Peer: 0})
	send(c, 2, 0, claimMsg{"seg", 1, 5})
	if len(seen) != 2 || seen[0] != "start" || seen[1] != "send" {
		t.Fatalf("chained observer saw %v", seen)
	}
}

type observerFunc func(*sim.ObservedEvent)

func (f observerFunc) OnEvent(ev *sim.ObservedEvent) { f(ev) }

func TestAuditIndices(t *testing.T) {
	const L, k = 1024, 16
	a := auditIndices(42, 3, L, k)
	if len(a) != k {
		t.Fatalf("got %d indices, want %d", len(a), k)
	}
	seen := map[int]bool{}
	for _, idx := range a {
		if idx < 0 || idx >= L {
			t.Fatalf("index %d out of range", idx)
		}
		if seen[idx] {
			t.Fatalf("duplicate index %d", idx)
		}
		seen[idx] = true
	}
	b := auditIndices(42, 3, L, k)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("audit indices not deterministic for a fixed seed and peer")
		}
	}
	c := auditIndices(42, 4, L, k)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different peers drew identical audit indices")
	}
	if got := auditIndices(42, 0, 8, 99); len(got) != 8 {
		t.Fatalf("k > L should audit all %d bits, got %d", 8, len(got))
	}
	// Dense sampling path (k*4 >= L) must also be distinct and in range.
	d := auditIndices(7, 1, 16, 8)
	dseen := map[int]bool{}
	for _, idx := range d {
		if idx < 0 || idx >= 16 || dseen[idx] {
			t.Fatalf("dense sample invalid: %v", d)
		}
		dseen[idx] = true
	}
}

func TestRunAuditFindsForgery(t *testing.T) {
	input := bitarray.New(64)
	for i := 0; i < 64; i += 2 {
		input.Set(i, true)
	}
	forged := input.Clone()
	for i := 0; i < 64; i++ {
		forged.Set(i, !forged.Get(i)) // maximally wrong
	}
	res := &sim.Result{PerPeer: []sim.PeerStats{
		{ID: 0, Honest: true, Terminated: true, Output: input.Clone()},
		{ID: 1, Honest: true, Terminated: true, Output: forged},
		{ID: 2, Honest: true, Terminated: true, Output: nil},
		{ID: 3, Honest: false, Terminated: true, Output: forged}, // byzantine: skipped
		{ID: 4, Honest: true, Terminated: false},                 // never finished: skipped
	}}
	verified := trackers(5, 64)
	rep := runAudit(res, input, 8, 1, verified)
	if rep.Peers != 3 {
		t.Fatalf("audited %d peers, want 3", rep.Peers)
	}
	if rep.Bits != 16 { // peers 0 and 1 pay 8 each; peer 2 has no output to audit
		t.Fatalf("audit bits = %d, want 16", rep.Bits)
	}
	var forgedHits, noOutput int
	for _, mm := range rep.Mismatches {
		switch {
		case mm.Peer == 1 && mm.Index >= 0:
			forgedHits++
		case mm.Peer == 2 && mm.Index == -1:
			noOutput++
		case mm.Peer == 0:
			t.Fatalf("honest exact output flagged at bit %d", mm.Index)
		case mm.Peer == 3 || mm.Peer == 4:
			t.Fatalf("peer %d should not have been audited", mm.Peer)
		}
	}
	if forgedHits != 8 || noOutput != 1 {
		t.Fatalf("mismatches: forged=%d noOutput=%d, want 8 and 1", forgedHits, noOutput)
	}
	// Audited truth joined the peer's verified bits.
	if got := 64 - verified[1].UnknownCount(); got != 8 {
		t.Fatalf("peer 1 has %d verified bits, want 8", got)
	}
}

// trackers returns n empty trackers of l bits: the supervisor's
// per-peer verified bits before the first rung.
func trackers(n, l int) []*bitarray.Tracker {
	ts := make([]*bitarray.Tracker, n)
	for i := range ts {
		ts[i] = bitarray.NewTracker(l)
	}
	return ts
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("empty ladder accepted")
	}
	if _, err := Run(Config{Rungs: []Rung{{Name: "x"}}}); err == nil {
		t.Error("rung without factory accepted")
	}
	rungs := []Rung{{Name: "x", NewPeer: func(sim.PeerID) sim.Peer { return nil }}}
	if _, err := Run(Config{Rungs: rungs}); err == nil {
		t.Error("config without runner accepted")
	}
}

// TestCollectorOnSockets runs the evidence collector off the socket
// runtime's event stream: committee with its faulty peers equivocating.
// Byzantine peers send from their own clients, so their sends reach the
// stream with their messages, and the collector names only faulty peers,
// the same set it names off des for the same case.
func TestCollectorOnSockets(t *testing.T) {
	const n, tf, L, b, seed = 8, 3, 512, 64, 5
	faulty := adversary.SpreadFaulty(n, tf)
	byz := sim.Byzantines(faulty, committee.NewEquivocator)

	onDes := NewCollector(n, 0, nil)
	if _, err := des.New().Run(&sim.Spec{
		Config:  sim.Config{N: n, T: tf, L: L, MsgBits: b, Seed: seed},
		NewPeer: committee.New, Delays: adversary.NewRandomUnit(seed), Faults: sim.Faults{Fates: byz},
		Observer: onDes,
	}); err != nil {
		t.Fatal(err)
	}
	onTCP := NewCollector(n, 0, nil)
	res, err := netrt.Run(netrt.Config{
		N: n, T: tf, L: L, MsgBits: b, Seed: seed,
		NewPeer: committee.New, Fates: byz, Observer: onTCP,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("committee under equivocation over sockets: %v", res.Failures)
	}
	got := onTCP.Equivocators()
	if len(got) == 0 {
		t.Fatal("the collector named no equivocator off the socket stream")
	}
	for _, p := range got {
		if !slices.Contains(faulty, p) {
			t.Errorf("the collector named honest peer %d off the socket stream", p)
		}
	}
	if want := onDes.Equivocators(); !slices.Equal(got, want) {
		t.Errorf("equivocators off sockets %v, off des %v", got, want)
	}
}
