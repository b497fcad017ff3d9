package source

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitarray"
)

func mustPlan(t *testing.T, s string) *FaultPlan {
	t.Helper()
	p, err := ParsePlan(s)
	if err != nil {
		t.Fatalf("ParsePlan(%q): %v", s, err)
	}
	return p
}

func TestParsePlanGrammar(t *testing.T) {
	p := mustPlan(t, "fail=0.25,timeout=0.1,corrupt=0.01,latency=0.5,outage=2..5,outage=8..9,rate=64/256,seed=7")
	if p.FailRate != 0.25 || p.TimeoutRate != 0.1 || p.CorruptRate != 0.01 || p.Latency != 0.5 {
		t.Fatalf("rates wrong: %+v", p)
	}
	if len(p.Outages) != 2 || p.Outages[0] != (Window{2, 5}) || p.Outages[1] != (Window{8, 9}) {
		t.Fatalf("outages wrong: %+v", p.Outages)
	}
	if p.RateBits != 64 || p.RateBurst != 256 || p.Seed != 7 {
		t.Fatalf("rate/seed wrong: %+v", p)
	}
	if nil2, err := ParsePlan("  "); err != nil || nil2 != nil {
		t.Fatalf("empty plan: %v %v", nil2, err)
	}
	// Canonical String round-trips.
	q := mustPlan(t, p.String())
	if q.String() != p.String() {
		t.Fatalf("round trip: %q != %q", q.String(), p.String())
	}
}

func TestParsePlanRejects(t *testing.T) {
	for _, bad := range []string{
		"fail=1.5", "fail=-0.1", "timeout=1", "corrupt=2",
		"outage=5..2", "outage=5", "outage=-1..2",
		"rate=x", "bogus=1", "fail", "latency=-1",
	} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("ParsePlan(%q): want error", bad)
		}
	}
}

func TestPlanDecisionsDeterministic(t *testing.T) {
	p := mustPlan(t, "fail=0.3,timeout=0.2,latency=0.5,seed=42")
	q := mustPlan(t, "fail=0.3,timeout=0.2,latency=0.5,seed=42")
	for peer := 0; peer < 4; peer++ {
		for ord := uint64(0); ord < 20; ord++ {
			for att := 1; att <= 3; att++ {
				if p.fails(peer, ord, att) != q.fails(peer, ord, att) ||
					p.timesOut(peer, ord, att) != q.timesOut(peer, ord, att) ||
					p.extraLatency(peer, ord, att) != q.extraLatency(peer, ord, att) {
					t.Fatalf("plans diverge at peer=%d ord=%d att=%d", peer, ord, att)
				}
			}
		}
	}
	// A different seed decorrelates: some decision must differ.
	r := mustPlan(t, "fail=0.3,timeout=0.2,latency=0.5,seed=43")
	same := true
	for ord := uint64(0); ord < 64 && same; ord++ {
		if p.fails(0, ord, 1) != r.fails(0, ord, 1) {
			same = false
		}
	}
	if same {
		t.Fatal("seed change did not change the fault landscape")
	}
}

func TestFaultyOutageAndRates(t *testing.T) {
	input := bitarray.Random(rand.New(rand.NewSource(1)), 64)
	src := Wrap(NewTrusted(input), mustPlan(t, "outage=2..5,seed=1"))
	req := Request{Peer: 0, Indices: []int{1, 2, 3}, Ordinal: 1, Attempt: 1}
	req.Now = 3
	if _, err := src.Fetch(req); KindOf(err) != KindOutage {
		t.Fatalf("in-window fetch: got %v, want outage", err)
	}
	req.Now = 5 // window is [2, 5): healed exactly at End
	rep, err := src.Fetch(req)
	if err != nil {
		t.Fatalf("post-window fetch: %v", err)
	}
	for j, idx := range req.Indices {
		if rep.Bits.Get(j) != input.Get(idx) {
			t.Fatalf("bit %d wrong", j)
		}
	}
}

func TestFaultyRateLimit(t *testing.T) {
	input := bitarray.Random(rand.New(rand.NewSource(1)), 256)
	src := Wrap(NewTrusted(input), mustPlan(t, "rate=10/16,seed=1"))
	idx := make([]int, 16)
	for i := range idx {
		idx[i] = i
	}
	// First fetch drains the burst; an immediate second fetch must be
	// rejected; after 1.6 units the bucket refills.
	if _, err := src.Fetch(Request{Indices: idx, Ordinal: 1, Attempt: 1, Now: 0}); err != nil {
		t.Fatalf("burst fetch: %v", err)
	}
	_, err := src.Fetch(Request{Indices: idx, Ordinal: 2, Attempt: 1, Now: 0.1})
	if KindOf(err) != KindRateLimit {
		t.Fatalf("drained fetch: got %v, want ratelimit", err)
	}
	if !errors.Is(err, ErrRateLimited) {
		t.Fatalf("ratelimit error does not match sentinel: %v", err)
	}
	if _, err := src.Fetch(Request{Indices: idx, Ordinal: 3, Attempt: 1, Now: 2}); err != nil {
		t.Fatalf("refilled fetch: %v", err)
	}
}

func TestFaultyCorruption(t *testing.T) {
	input := bitarray.Random(rand.New(rand.NewSource(1)), 128)
	// corrupt=0.999… : essentially every reply flips exactly one bit.
	src := Wrap(NewTrusted(input), mustPlan(t, "corrupt=0.99,seed=9"))
	idx := make([]int, 32)
	for i := range idx {
		idx[i] = i
	}
	flipped := 0
	for ord := uint64(1); ord <= 20; ord++ {
		rep, err := src.Fetch(Request{Indices: idx, Ordinal: ord, Attempt: 1})
		if err != nil {
			t.Fatalf("fetch: %v", err)
		}
		diff := 0
		for j, ix := range idx {
			if rep.Bits.Get(j) != input.Get(ix) {
				diff++
			}
		}
		if diff > 1 {
			t.Fatalf("ordinal %d: %d bits flipped, want ≤ 1", ord, diff)
		}
		flipped += diff
	}
	if flipped < 15 {
		t.Fatalf("corrupt=0.99 flipped only %d/20 replies", flipped)
	}
}

func TestWrapDisabled(t *testing.T) {
	tr := NewTrusted(bitarray.New(8))
	if Wrap(tr, nil) != Source(tr) {
		t.Fatal("nil plan must not wrap")
	}
	if Wrap(tr, &FaultPlan{Seed: 5}) != Source(tr) {
		t.Fatal("do-nothing plan must not wrap")
	}
	if Wrap(tr, &FaultPlan{FailRate: 0.1}) == Source(tr) {
		t.Fatal("active plan must wrap")
	}
}

// TestErrorTaxonomy is the satellite table test: every kind wraps its
// sentinel, matches errors.Is/errors.As through wrapping, and renders.
func TestErrorTaxonomy(t *testing.T) {
	cases := []struct {
		kind     Kind
		sentinel error
		name     string
	}{
		{KindOutage, ErrUnavailable, "outage"},
		{KindFlaky, ErrUnavailable, "flaky"},
		{KindRateLimit, ErrRateLimited, "ratelimit"},
		{KindTimeout, ErrTimeout, "timeout"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := error(&Error{Kind: tc.kind, Peer: 3, Time: 1.5, Attempt: 2})
			if !errors.Is(err, tc.sentinel) {
				t.Fatalf("errors.Is(%v, %v) = false", err, tc.sentinel)
			}
			for _, other := range []error{ErrUnavailable, ErrRateLimited, ErrTimeout} {
				if other != tc.sentinel && errors.Is(err, other) {
					t.Fatalf("errors.Is(%v, %v) = true, want false", err, other)
				}
			}
			// Matching survives further wrapping, the end-to-end contract.
			wrapped := fmt.Errorf("query 7: %w", err)
			var se *Error
			if !errors.As(wrapped, &se) || se.Kind != tc.kind {
				t.Fatalf("errors.As through wrap failed: %v", wrapped)
			}
			if KindOf(wrapped) != tc.kind {
				t.Fatalf("KindOf(%v) = %v", wrapped, KindOf(wrapped))
			}
			if se.Error() == "" || tc.kind.String() != tc.name {
				t.Fatalf("rendering wrong: %q / %q", se.Error(), tc.kind)
			}
		})
	}
	if KindOf(errors.New("plain")) != 0 {
		t.Fatal("KindOf(non-source) must be 0")
	}
}

func TestClientRetryBackoff(t *testing.T) {
	c := NewClient(0, Policy{MaxAttempts: 4, BaseBackoff: 1, MaxBackoff: 8, BreakerThreshold: 10, Seed: 3})
	if ok, _ := c.Admit(0); !ok {
		t.Fatal("closed breaker must admit")
	}
	var prev float64
	for att := 1; att <= 3; att++ {
		retryAt, park := c.OnFailure(float64(att), KindFlaky, 1, att)
		if park {
			t.Fatalf("attempt %d parked below MaxAttempts", att)
		}
		delay := retryAt - float64(att)
		// Jittered exponential: attempt a waits in [0.5, 1.5)·2^(a-1).
		base := float64(int(1) << (att - 1))
		if delay < 0.5*base || delay >= 1.5*base {
			t.Fatalf("attempt %d: delay %v outside jitter band of %v", att, delay, base)
		}
		if delay == prev {
			t.Fatalf("attempt %d: jitter repeated exactly", att)
		}
		prev = delay
	}
	// Attempt 4 == MaxAttempts: park and open.
	if _, park := c.OnFailure(4, KindFlaky, 1, 4); !park {
		t.Fatal("exhausted attempts must park")
	}
	if c.State() != StateOpen || c.Stats().BreakerOpens != 1 {
		t.Fatalf("breaker not open after exhaustion: %v %+v", c.State(), c.Stats())
	}
}

func TestClientBreakerLifecycle(t *testing.T) {
	c := NewClient(1, Policy{BreakerThreshold: 2, BreakerCooldown: 5, MaxAttempts: 10, BaseBackoff: 0.1})
	c.OnFailure(1, KindOutage, 1, 1)
	if _, park := c.OnFailure(2, KindOutage, 2, 1); !park {
		t.Fatal("threshold failure must park")
	}
	if c.State() != StateOpen {
		t.Fatalf("state = %v, want open", c.State())
	}
	// While open: admissions defer until the cooldown.
	ok, wake := c.Admit(3)
	if ok || wake != 7 {
		t.Fatalf("open admit: ok=%v wake=%v, want defer until 7", ok, wake)
	}
	// After the cooldown: half-open, exactly one probe admitted.
	if ok, _ := c.Admit(7); !ok {
		t.Fatal("cooldown elapsed: probe must be admitted")
	}
	if c.State() != StateHalfOpen {
		t.Fatalf("state = %v, want half-open", c.State())
	}
	if ok, _ := c.Admit(7.1); ok {
		t.Fatal("second concurrent probe admitted")
	}
	// Probe fails: re-open (counts another open), then a later probe
	// succeeds and closes.
	if _, park := c.OnFailure(8, KindOutage, 3, 1); !park {
		t.Fatal("failed probe must park")
	}
	if c.State() != StateOpen || c.Stats().BreakerOpens != 2 {
		t.Fatalf("failed probe: %v opens=%d", c.State(), c.Stats().BreakerOpens)
	}
	if ok, _ := c.Admit(13.5); !ok {
		t.Fatal("second probe not admitted")
	}
	if flush := c.OnSuccess(14); !flush {
		t.Fatal("closing probe must request a flush of parked queries")
	}
	if c.State() != StateClosed {
		t.Fatalf("state = %v, want closed", c.State())
	}
	st := c.Stats()
	if st.DegradedTime != 14-2 {
		t.Fatalf("DegradedTime = %v, want 12 (open at t=2, closed at t=14)", st.DegradedTime)
	}
	// The three failures fed were outages, each one a failure.
	if st.Deferred != 2 || st.Failures != 3 {
		t.Fatalf("stats wrong: %+v", st)
	}
	// Success in closed state is a plain reset, no flush.
	if c.OnSuccess(15) {
		t.Fatal("closed success must not flush")
	}
}

func TestClientSettle(t *testing.T) {
	c := NewClient(0, Policy{BreakerThreshold: 1})
	c.OnFailure(10, KindTimeout, 1, 1)
	c.Settle(25)
	if got := c.Stats().DegradedTime; got != 15 {
		t.Fatalf("Settle: DegradedTime = %v, want 15", got)
	}
}
