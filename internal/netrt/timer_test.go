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
// query waits before it counts as silent, and — on a real socket against
// a scripted hub — that a refused query and a breaker probe go out when
// the policy says, not at the next period.

// planeClient is a client of a bare hub's peer 1 with a live query plane
// under pol, whose frames go nowhere.
func planeClient(t *testing.T, res Resilience, pol source.Policy) *client {
	t.Helper()
	h := bareHub(t, Config{N: 2, T: 0, L: 256, MsgBits: 64, Seed: 8})
	st := &sim.PeerStats{}
	return &client{cfg: &h.cfg, res: res.withDefaults(), id: 1, impl: &recorder{}, start: time.Now(),
		conn: newFrameConn(&recConn{discard: true}, 0), stats: st,
		q: qplane.NewRemoteTier(h.cfg.L, h.cfg.Seed, pol).NewPlane(1, st, false)}
}

// TestSilenceDeadlineDoublesPerRetry: attempt k of a query counts as
// silent 2^(k-1)·QueryTimeout after it was sent, capped at 8×. A refusal
// restarts the count: the re-send after it is attempt 2 again, however
// many silent retries came before.
func TestSilenceDeadlineDoublesPerRetry(t *testing.T) {
	const timeout = 100 * time.Millisecond
	want := []time.Duration{timeout, 2 * timeout, 4 * timeout, 8 * timeout, 8 * timeout} // attempts 1–5
	idx := []int{1, 2, 3}
	for _, refused := range []bool{false, true} {
		c := planeClient(t, Resilience{QueryTimeout: timeout}, source.Policy{})
		before := time.Now()
		c.Query(1, slices.Clone(idx))
		after := time.Now()
		pq := c.queries[0]
		if d := pq.deadline.Sub(before); pq.attempts != 1 || d < want[0] || d > want[0]+after.Sub(before) {
			t.Errorf("refused=%v: attempt %d waits %v, want %v", refused, pq.attempts, d, want[0])
		}
		if refused {
			for pq.attempts < 4 {
				c.housekeep(pq.deadline, time.Hour) // three silent retries
			}
			c.handleFrame(kQErr, 1, append(encodeQueryHeader(1, idx), byte(source.KindFlaky)))
			if pq.state != backoff || pq.attempts != 1 {
				t.Fatalf("after the refusal: state %d, attempts %d; want backed off with the count restarted", pq.state, pq.attempts)
			}
		}
		for a := 2; a <= len(want); a++ {
			now := pq.deadline
			c.housekeep(now, time.Hour)
			if pq.state != sent || pq.attempts != a {
				t.Fatalf("refused=%v: state %d after %d attempts, want attempt %d sent", refused, pq.state, pq.attempts, a)
			}
			if d := pq.deadline.Sub(now); d != want[a-1] {
				t.Errorf("refused=%v: attempt %d waits %v, want %v", refused, a, d, want[a-1])
			}
		}
	}
}

// TestNextPassEarliestDeadline: the timer's next pass is the earliest of a
// backed-off call's admission, a sent call's silence while it is under the
// QueryAttempts budget, and the pending breaker wake, and never later than
// the period. A parked call, a sent one past its budget, an unset wake and
// anything of a terminated client do not count.
func TestNextPassEarliestDeadline(t *testing.T) {
	const period = 50 * time.Millisecond
	now := time.Unix(1000, 0)
	ms := func(n int) time.Time { return now.Add(time.Duration(n) * time.Millisecond) }
	budget := Resilience{}.withDefaults().QueryAttempts
	call := func(state qstate, attempts, at int) *pendingQuery {
		return &pendingQuery{state: state, attempts: attempts, deadline: ms(at)}
	}
	for _, tc := range []struct {
		name       string
		queries    []*pendingQuery
		wake       time.Time
		terminated bool
		want       time.Time
	}{
		{"nothing held", nil, time.Time{}, false, ms(50)},
		{"backed off", []*pendingQuery{call(backoff, 1, 12)}, time.Time{}, false, ms(12)},
		{"sent", []*pendingQuery{call(sent, 1, 30)}, time.Time{}, false, ms(30)},
		{"overdue", []*pendingQuery{call(sent, 2, -5)}, time.Time{}, false, ms(-5)},
		{"earliest of several", []*pendingQuery{call(sent, 1, 40), call(backoff, 3, 7), call(sent, 2, 9)}, time.Time{}, false, ms(7)},
		{"parked", []*pendingQuery{call(parked, 1, 1)}, time.Time{}, false, ms(50)},
		{"sent past the budget", []*pendingQuery{call(sent, budget, 1)}, time.Time{}, false, ms(50)},
		{"backed off past the budget", []*pendingQuery{call(backoff, budget, 3)}, time.Time{}, false, ms(3)},
		{"wake", []*pendingQuery{call(parked, 1, 1)}, ms(20), false, ms(20)},
		{"wake after a deadline", []*pendingQuery{call(backoff, 1, 15)}, ms(20), false, ms(15)},
		{"beyond the period", []*pendingQuery{call(sent, 1, 500), call(backoff, 1, 80)}, ms(2000), false, ms(50)},
		{"terminated", []*pendingQuery{call(sent, 1, 1), call(backoff, 1, 2)}, ms(3), true, ms(50)},
	} {
		c := &client{res: Resilience{}.withDefaults(), queries: tc.queries, wakeAt: tc.wake, terminated: tc.terminated}
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
