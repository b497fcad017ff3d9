package netrt

import (
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/qplane"
	"repro/internal/sim"
	"repro/internal/source"
)

// The client's housekeeping timer sleeps until the earliest deadline the
// client holds. The tests below pin which deadlines count, how long a
// query waits before it counts as silent, what its silence does, and — on
// a real socket against a scripted hub — that a refused query and a
// breaker probe go out when the policy says, not at the next period.

// failKinds counts a run's "qfail" events by source failure kind.
type failKinds map[string]int

func (failKinds) Kinds() sim.KindSet              { return sim.KindQFail }
func (f failKinds) OnEvent(ev *sim.ObservedEvent) { f[ev.MsgType]++ }

// planeClient is a client of a bare hub's peer 1 with a live query plane
// under pol, whose frames go nowhere, and the kinds of the failures it
// emits.
func planeClient(t *testing.T, res Resilience, pol source.Policy) (*client, failKinds) {
	t.Helper()
	fails := failKinds{}
	h := bareHub(t, Config{N: 2, T: 0, L: 256, MsgBits: 64, Seed: 8, Observer: fails})
	st := &sim.PeerStats{}
	start := time.Now()
	return &client{cfg: &h.cfg, res: res.withDefaults(), id: 1, impl: &recorder{}, start: start,
		link: link{conn: newFrameConn(&recConn{discard: true}, 0)}, stats: st, ev: newEvents(&h.cfg, start),
		q: qplane.NewRemoteTier(h.cfg.L, h.cfg.Seed, pol).NewPlane(1, st, false, nil)}, fails
}

// TestSilenceFailsAsTimeout: a sent query counts as silent QueryTimeout
// after it went out, and its silence is the source's lost reply, ruled by
// the plane as on every runtime: the call fails as source.KindTimeout and
// is backed off, goes out again when the backoff ends, and parks once
// Policy.MaxAttempts attempts have fallen silent.
func TestSilenceFailsAsTimeout(t *testing.T) {
	const timeout = 100 * time.Millisecond
	pol := source.Policy{MaxAttempts: 3, BreakerThreshold: 10}
	c, fails := planeClient(t, Resilience{QueryTimeout: timeout}, pol)
	timeouts := source.KindTimeout.String()
	before := time.Now()
	c.Query(1, []int{1, 2, 3})
	after := time.Now()
	pq := c.queries[0]
	if d := pq.deadline.Sub(before); pq.state != sent || d < timeout || d > timeout+after.Sub(before) {
		t.Fatalf("first attempt in state %d waits %v, want sent for %v", pq.state, d, timeout)
	}
	for a := 1; a < pol.MaxAttempts; a++ {
		silent := pq.deadline
		c.housekeep(silent, time.Hour)
		c.q.Settle(c.clock(silent))
		if pq.state != backoff || !pq.deadline.After(silent) || fails[timeouts] != a || c.stats.SourceFailures != a {
			t.Fatalf("silence %d: state %d, due %v later, %d timeouts of %d failures; want backed off, %d timeouts",
				a, pq.state, pq.deadline.Sub(silent), fails[timeouts], c.stats.SourceFailures, a)
		}
		due := pq.deadline
		c.housekeep(due, time.Hour)
		if pq.state != sent || pq.call.Attempt != a+1 || pq.deadline != due.Add(timeout) {
			t.Fatalf("after backoff %d: state %d, attempt %d, silent %v later; want attempt %d sent for %v",
				a, pq.state, pq.call.Attempt, pq.deadline.Sub(due), a+1, timeout)
		}
	}
	c.housekeep(pq.deadline, time.Hour)
	c.q.Settle(c.clock(pq.deadline))
	if pq.state != parked || c.q.Parked() != 1 || fails[timeouts] != pol.MaxAttempts || c.stats.SourceRetries != pol.MaxAttempts-1 {
		t.Fatalf("after %d silences: state %d, %d parked, %d timeouts, %d retries; want the call parked",
			pol.MaxAttempts, pq.state, c.q.Parked(), fails[timeouts], c.stats.SourceRetries)
	}
	if c.stats.QueryRetries != pol.MaxAttempts-1 {
		t.Errorf("QueryRetries = %d, want %d re-sends", c.stats.QueryRetries, pol.MaxAttempts-1)
	}
}

// TestSilenceOpensBreaker: silence is a failure like any other, so under
// BreakerThreshold 1 the first one opens the breaker and parks the call
// until the wake.
func TestSilenceOpensBreaker(t *testing.T) {
	c, fails := planeClient(t, Resilience{QueryTimeout: 100 * time.Millisecond},
		source.Policy{BreakerThreshold: 1, BreakerCooldown: 60})
	c.Query(1, []int{1, 2, 3})
	pq := c.queries[0]
	c.housekeep(pq.deadline, time.Hour)
	c.q.Settle(c.clock(pq.deadline))
	timeouts := fails[source.KindTimeout.String()]
	if pq.state != parked || c.stats.BreakerOpens != 1 || timeouts != 1 || c.wakeAt.IsZero() {
		t.Fatalf("state %d, %d breaker opens, %d timeouts, wake armed %v; want the call parked behind the open breaker",
			pq.state, c.stats.BreakerOpens, timeouts, !c.wakeAt.IsZero())
	}
}

// TestSilenceThenRefusalFailsOnce: a QERR that arrives after the call's
// silence already failed its attempt is a stale verdict on that attempt.
// It adds no second failure and leaves the call's backoff as it was.
func TestSilenceThenRefusalFailsOnce(t *testing.T) {
	c, fails := planeClient(t, Resilience{QueryTimeout: 100 * time.Millisecond}, source.Policy{})
	idx := []int{1, 2, 3}
	c.Query(1, slices.Clone(idx))
	pq := c.queries[0]
	c.housekeep(pq.deadline, time.Hour)
	due := pq.deadline
	c.handleFrame(kQErr, 1, append(encodeQueryHeader(1, idx), byte(source.KindFlaky)))
	c.q.Settle(c.clock(due))
	timeouts, flaky := fails[source.KindTimeout.String()], fails[source.KindFlaky.String()]
	if pq.state != backoff || pq.deadline != due || c.stats.SourceFailures != 1 || timeouts != 1 || flaky != 0 {
		t.Fatalf("state %d, due moved %v, %d failures (%d timeouts, %d flaky); want one timeout and the backoff kept",
			pq.state, pq.deadline.Sub(due), c.stats.SourceFailures, timeouts, flaky)
	}
}

// TestNextPassEarliestDeadline: the timer's next pass is the earliest of a
// backed-off call's admission, a sent call's silence and the pending
// breaker wake, and never later than the period. A parked call, an unset
// wake and anything of a terminated client do not count.
func TestNextPassEarliestDeadline(t *testing.T) {
	const period = 50 * time.Millisecond
	now := time.Unix(1000, 0)
	ms := func(n int) time.Time { return now.Add(time.Duration(n) * time.Millisecond) }
	call := func(state qstate, at int) *pendingQuery {
		return &pendingQuery{state: state, deadline: ms(at)}
	}
	for _, tc := range []struct {
		name       string
		queries    []*pendingQuery
		wake       time.Time
		terminated bool
		want       time.Time
	}{
		{"nothing held", nil, time.Time{}, false, ms(50)},
		{"backed off", []*pendingQuery{call(backoff, 12)}, time.Time{}, false, ms(12)},
		{"sent", []*pendingQuery{call(sent, 30)}, time.Time{}, false, ms(30)},
		{"overdue", []*pendingQuery{call(sent, -5)}, time.Time{}, false, ms(-5)},
		{"earliest of several", []*pendingQuery{call(sent, 40), call(backoff, 7), call(sent, 9)}, time.Time{}, false, ms(7)},
		{"parked", []*pendingQuery{call(parked, 1)}, time.Time{}, false, ms(50)},
		{"wake", []*pendingQuery{call(parked, 1)}, ms(20), false, ms(20)},
		{"wake after a deadline", []*pendingQuery{call(backoff, 15)}, ms(20), false, ms(15)},
		{"beyond the period", []*pendingQuery{call(sent, 500), call(backoff, 80)}, ms(2000), false, ms(50)},
		{"terminated", []*pendingQuery{call(sent, 1), call(backoff, 2)}, ms(3), true, ms(50)},
	} {
		c := &client{queries: tc.queries, wakeAt: tc.wake, terminated: tc.terminated}
		if got := c.nextPass(now, period); !got.Equal(tc.want) {
			t.Errorf("%s: next pass at %v, want %v", tc.name, got.Sub(now), tc.want.Sub(now))
		}
	}
}

// queryGaps runs one askOnce client under pol against a scripted hub that
// refuses its query with refusals QERRs and answers the next QUERY, and
// returns how long after each QERR the following QUERY arrived.
func queryGaps(t *testing.T, pol source.Policy, refusals int) []time.Duration {
	t.Helper()
	idx, vals := []int{3, 4, 5}, []bool{true, false, true}
	var mu sync.Mutex
	var refusedAt time.Time
	var gaps []time.Duration
	addr := scriptedHub(t, func(_ byte, hdr []byte, reply func(byte, []byte)) {
		mu.Lock()
		defer mu.Unlock()
		if !refusedAt.IsZero() {
			gaps = append(gaps, time.Since(refusedAt))
		}
		if len(gaps) == refusals {
			reply(kQReply, qreply(hdr, vals...))
			return
		}
		reply(kQErr, append(hdr, byte(source.KindFlaky)))
		refusedAt = time.Now()
	})
	peer := &askOnce{tag: 2, idx: idx, got: make(chan sim.QueryReply, 8)}
	runPeer(t, addr, 64, peer, pol)
	if len(peer.got) != 1 {
		t.Fatalf("protocol was handed %d replies, want 1", len(peer.got))
	}
	checkReply(t, <-peer.got, 2, idx, vals)
	mu.Lock()
	defer mu.Unlock()
	if len(gaps) != refusals {
		t.Fatalf("the hub saw %d re-sends, want %d", len(gaps), refusals)
	}
	return gaps
}

// TestRefusedQueryResentAtBackoff: a refused query goes out again when
// its backoff ends. The backoff is 5–15 ms (BaseBackoff 10 ms, ±50 %
// jitter, capped at MaxBackoff so it does not grow), so each of ten
// re-sends must reach the hub within 35 ms of its QERR — where waiting for
// a 50 ms housekeeping period would miss that most of the time.
func TestRefusedQueryResentAtBackoff(t *testing.T) {
	pol := source.Policy{BaseBackoff: 0.01, MaxBackoff: 0.01, MaxAttempts: 20, BreakerThreshold: 20}
	for i, gap := range queryGaps(t, pol, 10) {
		if gap < 5*time.Millisecond || gap >= 35*time.Millisecond {
			t.Errorf("refusal %d: the query was re-sent %v after its QERR, want 5–35 ms", i+1, gap)
		}
	}
}

// TestBreakerProbeAtCooldown: a refusal that opens the breaker parks the
// query, and the half-open probe goes out when the cooldown ends: within
// 35 ms of the QERR under a 20 ms cooldown, and not before it.
func TestBreakerProbeAtCooldown(t *testing.T) {
	const cooldown = 20 * time.Millisecond
	pol := source.Policy{BreakerThreshold: 1, BreakerCooldown: cooldown.Seconds()}
	gap := queryGaps(t, pol, 1)[0]
	// The probe's wake is armed from the client's receipt of the QERR, on
	// a float clock: allow it a millisecond of rounding.
	if gap < cooldown-time.Millisecond || gap >= 35*time.Millisecond {
		t.Errorf("the probe was sent %v after the QERR that opened the breaker, want %v–35 ms", gap, cooldown)
	}
}
