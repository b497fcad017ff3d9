package qplane

import (
	"reflect"
	"testing"

	"repro/internal/bitarray"
	"repro/internal/sim"
	"repro/internal/source"
)

// scripted is a source.Source whose outcomes are dictated by the test: it
// pops one entry per Fetch (0 = success, otherwise the failure kind) and
// records every request it saw.
type scripted struct {
	inner    *source.Trusted
	outcomes []source.Kind
	seen     []source.Request
}

func (s *scripted) Fetch(req source.Request) (source.Reply, error) {
	s.seen = append(s.seen, req)
	kind := s.outcomes[0]
	s.outcomes = s.outcomes[1:]
	if kind != 0 {
		return source.Reply{}, &source.Error{Kind: kind, Peer: req.Peer, Time: req.Now, Attempt: req.Attempt}
	}
	return s.inner.Fetch(req)
}

func testInput(l int) *bitarray.Array {
	in := bitarray.New(l)
	for i := 0; i < l; i++ {
		in.Set(i, i%3 == 0)
	}
	return in
}

// wantBits asserts a reply covers exactly indices with the input's bits.
func wantBits(t *testing.T, name string, in *bitarray.Array, qr sim.QueryReply, indices []int) {
	t.Helper()
	if !reflect.DeepEqual(qr.Indices, indices) {
		t.Fatalf("%s: reply covers %v, want %v", name, qr.Indices, indices)
	}
	for j, idx := range indices {
		if qr.Bits.Get(j) != in.Get(idx) {
			t.Fatalf("%s: reply bit for index %d is wrong", name, idx)
		}
	}
}

// TestLifecycle walks one peer's plane through the whole source-call
// lifecycle on a fake clock, no engine involved: issue → fail ×3 → park →
// early wake → probe fail → probe success → flush order → merged reply.
// After every step it checks that Q moved only in Begin.
func TestLifecycle(t *testing.T) {
	const cooldown = 2.0
	in := testInput(16)
	src := &scripted{inner: source.NewTrusted(in)}
	tier := &Tier{l: in.Len(), input: in, src: src, clients: true,
		policy: source.Policy{BreakerThreshold: 3, BreakerCooldown: cooldown, Seed: 1}}
	var stats sim.PeerStats
	p := tier.NewPlane(4, &stats, false)

	calls := map[string]*Call{}
	name := func(c *Call) string {
		for k, v := range calls {
			if v == c {
				return k
			}
		}
		return ""
	}
	var (
		now    float64 // the fake clock
		lastAt float64 // At of the previous Next
	)

	type step struct {
		name string
		// at sets the clock; atLast moves it to the previous Next's At.
		at     float64
		atLast bool
		// Exactly one of the ops below runs.
		begin   []int       // Begin(tag, begin) defining call
		admit   bool        // Admit(now, call)
		fetch   source.Kind // Fetch(now, call) with this scripted outcome (ok = success)
		fail    source.Kind // Fail(now, call, fail)
		wake    bool        // Wake(now)
		success bool        // Success(now)
		call    string

		wantOp      Op
		wantCall    string
		wantAt      float64 // checked when non-zero
		wantParked  int
		wantQ       int      // QueryBits after the step
		wantFlushed []string // success steps
		wantClosed  bool
		wantAttempt int // fetch steps: the call's attempt counter
	}
	const ok = source.Kind(255) // scripted success marker
	steps := []step{
		{name: "begin A", begin: []int{0, 1, 2}, call: "A", wantQ: 3},
		{name: "admit A", admit: true, call: "A", wantOp: Fetch, wantCall: "A", wantQ: 3},
		{name: "fetch A fails", fetch: source.KindFlaky, call: "A", wantAttempt: 1, wantQ: 3},
		{name: "fail 1 → retry", at: 1, fail: source.KindFlaky, call: "A", wantOp: Retry, wantCall: "A", wantQ: 3},
		{name: "re-admit A", atLast: true, admit: true, call: "A", wantOp: Fetch, wantCall: "A", wantQ: 3},
		{name: "fetch A fails again", fetch: source.KindTimeout, call: "A", wantAttempt: 2, wantQ: 3},
		{name: "fail 2 → retry", at: 3, fail: source.KindTimeout, call: "A", wantOp: Retry, wantCall: "A", wantQ: 3},
		{name: "re-admit A again", atLast: true, admit: true, call: "A", wantOp: Fetch, wantCall: "A", wantQ: 3},
		{name: "fetch A fails a third time", fetch: source.KindOutage, call: "A", wantAttempt: 3, wantQ: 3},
		{name: "fail 3 opens the breaker", at: 5, fail: source.KindOutage, call: "A",
			wantOp: Wake, wantAt: 5 + cooldown, wantParked: 1, wantQ: 3},
		{name: "begin B while open", at: 5.5, begin: []int{3, 4}, call: "B", wantParked: 1, wantQ: 5},
		{name: "admit B parks behind the pending wake", admit: true, call: "B", wantOp: Idle, wantParked: 2, wantQ: 5},
		{name: "begin C", begin: []int{5}, call: "C", wantParked: 2, wantQ: 6},
		{name: "admit C parks too", admit: true, call: "C", wantOp: Idle, wantParked: 3, wantQ: 6},
		{name: "early wake re-arms", at: 6, wake: true, wantOp: Wake, wantAt: 5 + cooldown, wantParked: 3, wantQ: 6},
		{name: "wake releases A as the probe", atLast: true, wake: true, wantOp: Fetch, wantCall: "A", wantParked: 2, wantQ: 6},
		{name: "probe fetch fails", fetch: source.KindOutage, call: "A", wantAttempt: 4, wantParked: 2, wantQ: 6},
		{name: "probe failure re-opens", at: 8, fail: source.KindOutage, call: "A",
			wantOp: Wake, wantAt: 8 + cooldown, wantParked: 3, wantQ: 6},
		{name: "wake releases B as the probe", atLast: true, wake: true, wantOp: Fetch, wantCall: "B", wantParked: 2, wantQ: 6},
		{name: "begin D during the probe", begin: []int{6, 7}, call: "D", wantParked: 2, wantQ: 8},
		{name: "admit D parks half-open", admit: true, call: "D", wantOp: Wake, wantAt: 10 + cooldown, wantParked: 3, wantQ: 8},
		{name: "probe fetch succeeds", fetch: ok, call: "B", wantAttempt: 1, wantParked: 3, wantQ: 8},
		{name: "success closes and flushes in order", at: 11, success: true,
			wantFlushed: []string{"C", "A", "D"}, wantClosed: true, wantQ: 8},
		{name: "admit flushed C", admit: true, call: "C", wantOp: Fetch, wantCall: "C", wantQ: 8},
		{name: "admit flushed A", admit: true, call: "A", wantOp: Fetch, wantCall: "A", wantQ: 8},
		{name: "fetch A succeeds on attempt 5", fetch: ok, call: "A", wantAttempt: 5, wantQ: 8},
		{name: "second success is a no-op", success: true, wantQ: 8},
		{name: "stale wake finds nothing", at: 12, wake: true, wantOp: Idle, wantQ: 8},
	}
	for _, s := range steps {
		if s.atLast {
			now = lastAt
		} else if s.at != 0 {
			now = s.at
		}
		var n Next
		switch {
		case s.begin != nil:
			b := p.Begin(len(calls)+1, s.begin)
			if b.Kind != Issue || b.Charged != len(s.begin) {
				t.Fatalf("%s: Begin = %+v, want an issued call charging %d", s.name, b, len(s.begin))
			}
			calls[s.call] = b.Call
		case s.admit:
			n = p.Admit(now, calls[s.call])
		case s.fetch != 0:
			kind := s.fetch
			if kind == ok {
				kind = 0
			}
			src.outcomes = append(src.outcomes, kind)
			reply, _, err := p.Fetch(now, calls[s.call])
			if (err == nil) != (kind == 0) || source.KindOf(err) != kind {
				t.Fatalf("%s: Fetch error %v, scripted kind %v", s.name, err, kind)
			}
			if got := calls[s.call].Attempt; got != s.wantAttempt {
				t.Fatalf("%s: attempt %d, want %d", s.name, got, s.wantAttempt)
			}
			if kind == 0 {
				wantBits(t, s.name, in, reply, calls[s.call].Indices)
			}
		case s.fail != 0:
			n = p.Fail(now, calls[s.call], s.fail)
		case s.wake:
			n = p.Wake(now)
		case s.success:
			flushed, closed := p.Success(now)
			var got []string
			for _, c := range flushed {
				got = append(got, name(c))
			}
			if !reflect.DeepEqual(got, s.wantFlushed) || closed != s.wantClosed {
				t.Fatalf("%s: flushed %v closed=%v, want %v closed=%v", s.name, got, closed, s.wantFlushed, s.wantClosed)
			}
		}
		if n.Op != s.wantOp || name(n.Call) != s.wantCall {
			t.Fatalf("%s: Next{Op: %d, Call: %q}, want Op %d Call %q", s.name, n.Op, name(n.Call), s.wantOp, s.wantCall)
		}
		if s.wantAt != 0 && n.At != s.wantAt {
			t.Fatalf("%s: At = %v, want %v", s.name, n.At, s.wantAt)
		}
		if n.Op == Retry && n.At <= now {
			t.Fatalf("%s: retry at %v is not after now=%v", s.name, n.At, now)
		}
		if n.Op != Idle {
			lastAt = n.At
		}
		if p.Parked() != s.wantParked {
			t.Fatalf("%s: %d parked, want %d", s.name, p.Parked(), s.wantParked)
		}
		// The single-charge rule: only Begin steps may move Q.
		if stats.QueryBits != s.wantQ {
			t.Fatalf("%s: QueryBits = %d, want %d", s.name, stats.QueryBits, s.wantQ)
		}
	}
	if stats.QueryCalls != 4 {
		t.Errorf("QueryCalls = %d, want 4", stats.QueryCalls)
	}
	// Every request carried the call's stable ordinal and a fresh attempt.
	var trail [][2]int
	for _, req := range src.seen {
		trail = append(trail, [2]int{int(req.Ordinal), req.Attempt})
	}
	want := [][2]int{{1, 1}, {1, 2}, {1, 3}, {1, 4}, {2, 1}, {1, 5}}
	if !reflect.DeepEqual(trail, want) {
		t.Errorf("(ordinal, attempt) trail %v, want %v", trail, want)
	}
	st := p.Settle(12)
	if st.Failures != 4 || st.Retries != 2 || st.BreakerOpens != 2 || st.Deferred != 3 {
		t.Errorf("client stats %+v", st)
	}
	if stats.SourceFailures != 4 || stats.SourceRetries != 2 || stats.BreakerOpens != 2 ||
		stats.DeferredQueries != 3 || stats.DegradedTime != 11-5 {
		t.Errorf("settled peer stats %+v", stats)
	}
	if stats.QueryBits != 8 {
		t.Errorf("Settle moved QueryBits to %d", stats.QueryBits)
	}
}

// TestRejoinWarmSplit covers the warm split of a rejoined churn peer —
// full hit, partial hit, no hit — on the oracle path and through a
// source tier, and that only the fetched remainder is charged.
func TestRejoinWarmSplit(t *testing.T) {
	in := testInput(16)
	for _, tc := range []struct {
		name string
		tier *Tier
	}{
		{"oracle", NewTier(in, 4, 1, nil, nil, source.Policy{})},
		{"source tier", &Tier{l: in.Len(), input: in, src: source.NewTrusted(in)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stats sim.PeerStats
			p := tc.tier.NewPlane(0, &stats, true)
			// resolve runs a begun query to its reply.
			resolve := func(b Begun) sim.QueryReply {
				if b.Kind != Issue {
					return b.Reply
				}
				if n := p.Admit(0, b.Call); n.Op != Fetch {
					t.Fatalf("Admit without a breaker = %+v", n)
				}
				qr, _, err := p.Fetch(0, b.Call)
				if err != nil {
					t.Fatal(err)
				}
				return qr
			}
			// First incarnation: nothing is served warm, everything learnt.
			first := p.Begin(1, []int{0, 1, 2, 3})
			if first.Kind == WarmHit || first.Charged != 4 {
				t.Fatalf("cold Begin = %+v", first)
			}
			p.Learn(resolve(first))
			if persisted := p.Persist().Len() - p.Persist().UnknownCount(); persisted != 4 {
				t.Fatalf("persisted %d bits, want 4", persisted)
			}
			p.Rejoin(nil)
			if !stats.Rejoined {
				t.Fatal("Rejoin did not mark the peer")
			}

			sourced := Oracle
			if tc.tier.src != nil {
				sourced = Issue
			}
			q, warm := 4, 0
			for _, c := range []struct {
				name        string
				indices     []int
				wantKind    Kind
				wantCharged int
				wantFetch   []int
			}{
				{"full hit", []int{1, 0}, WarmHit, 0, nil},
				{"partial hit", []int{2, 4, 3, 5}, sourced, 2, []int{4, 5}},
				{"no hit", []int{6, 7}, sourced, 2, []int{6, 7}},
				{"learnt since the rejoin", []int{4, 6}, WarmHit, 0, nil},
			} {
				b := p.Begin(2, c.indices)
				if b.Kind != c.wantKind || b.Charged != c.wantCharged {
					t.Fatalf("%s: Begin = %+v, want kind %d charging %d", c.name, b, c.wantKind, c.wantCharged)
				}
				if b.Kind == Issue && !reflect.DeepEqual(b.Call.Fetch, c.wantFetch) {
					t.Fatalf("%s: fetches %v, want %v", c.name, b.Call.Fetch, c.wantFetch)
				}
				q += c.wantCharged
				warm += len(c.indices) - c.wantCharged
				qr := resolve(b)
				wantBits(t, c.name, in, qr, c.indices)
				p.Learn(qr)
				if stats.QueryBits != q || stats.WarmHitBits != warm {
					t.Fatalf("%s: QueryBits=%d WarmHitBits=%d, want %d and %d",
						c.name, stats.QueryBits, stats.WarmHitBits, q, warm)
				}
			}
			if stats.QueryCalls != 5 {
				t.Errorf("QueryCalls = %d, want 5", stats.QueryCalls)
			}
		})
	}
}

// TestRejoinDropsDeadProbe: a churn peer that crashed while its half-open
// probe was out never hears that probe's outcome. Rejoin forgets it, so
// the next incarnation's first call goes out as a fresh probe instead of
// parking behind one that will never settle.
func TestRejoinDropsDeadProbe(t *testing.T) {
	const cooldown = 2.0
	var stats sim.PeerStats
	p := NewRemoteTier(16, 1, source.Policy{BreakerThreshold: 1, BreakerCooldown: cooldown}).
		NewPlane(0, &stats, true)
	a := p.Begin(1, []int{0, 1}).Call
	if n := p.Admit(0, a); n.Op != Fetch {
		t.Fatalf("Admit = %+v, want Fetch", n)
	}
	if n := p.Fail(0.5, a, source.KindOutage); n.Op != Wake {
		t.Fatalf("Fail = %+v, want the breaker open and a wake armed", n)
	}
	if n := p.Wake(0.5 + cooldown); n.Op != Fetch || n.Call != a {
		t.Fatalf("Wake = %+v, want the parked call released as the probe", n)
	}
	p.Rejoin(nil) // the probe died with the first incarnation
	b := p.Begin(2, []int{2, 3}).Call
	if n := p.Admit(3, b); n.Op != Fetch || n.Call != b {
		t.Fatalf("Admit after Rejoin = %+v, want the new call sent as a fresh probe", n)
	}
	if flushed, closed := p.Success(3.5); !closed || len(flushed) != 0 {
		t.Fatalf("Success = %d flushed, closed=%v; want the breaker closed", len(flushed), closed)
	}
}

// TestUnparkTakesLateReply: on a remote tier a slow reply can arrive after
// the driver's deadline parked its call. Unpark takes the call out of the
// queue, and the success the reply carries closes the breaker and
// flushes only the calls still parked.
func TestUnparkTakesLateReply(t *testing.T) {
	var stats sim.PeerStats
	p := NewRemoteTier(16, 1, source.Policy{BreakerThreshold: 1, BreakerCooldown: 2}).
		NewPlane(0, &stats, false)
	a, b := p.Begin(1, []int{0}).Call, p.Begin(2, []int{1}).Call
	p.Admit(0, a)
	p.Admit(0, b)
	if n := p.Fail(1, a, source.KindTimeout); n.Op != Wake {
		t.Fatalf("Fail = %+v, want the breaker open", n)
	}
	// b's reply is late past the driver's deadline: it fails as lost, and
	// when its backoff ends the open breaker parks it beside a.
	n := p.Fail(1.5, b, source.KindTimeout)
	if n.Op != Retry {
		t.Fatalf("Fail = %+v, want b backed off", n)
	}
	if n := p.Admit(n.At, b); n.Op != Idle || p.Parked() != 2 {
		t.Fatalf("Admit = %+v with %d parked, want b parked beside a", n, p.Parked())
	}
	p.Unpark(b) // b's reply came in after all
	flushed, closed := p.Success(1.6)
	if !closed || len(flushed) != 1 || flushed[0] != a {
		t.Fatalf("Success = %d flushed, closed=%v; want the breaker closed flushing a alone", len(flushed), closed)
	}
}

// TestBeginRejectsOutOfRange pins the range check: an index outside
// [0, L) is a protocol bug and must not be charged.
func TestBeginRejectsOutOfRange(t *testing.T) {
	var stats sim.PeerStats
	p := NewTier(testInput(8), 2, 1, nil, nil, source.Policy{}).NewPlane(1, &stats, false)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range index accepted")
		}
		if stats.QueryBits != 0 {
			t.Fatalf("rejected query charged %d bits", stats.QueryBits)
		}
	}()
	p.Begin(1, []int{3, 8})
}
