package source

import "repro/internal/hashmix"

// Policy tunes the client resilience layer. The zero value selects
// defaults (see withDefaults); fields are knobs, the mechanisms are
// always on and never fire against a clean source. Times are in runtime
// units: virtual units in des/dst, seconds in netrt.
type Policy struct {
	// MaxAttempts bounds attempts per logical query (first send
	// included) before the query parks behind the breaker. Default 6.
	MaxAttempts int
	// BaseBackoff is the delay before attempt 2; it doubles per attempt
	// (capped at MaxBackoff) with ±50% seeded jitter. Default 0.25.
	BaseBackoff float64
	// MaxBackoff caps the exponential backoff. Default 4.
	MaxBackoff float64
	// Deadline is how long the client waits for a reply before
	// declaring a KindTimeout failure. Default 1.
	Deadline float64
	// BreakerThreshold is the consecutive-failure count that opens the
	// circuit breaker. Default 3.
	BreakerThreshold int
	// BreakerCooldown is how long the breaker stays open before a
	// half-open probe. Default 2.
	BreakerCooldown float64
	// Seed drives the backoff jitter.
	Seed int64
}

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 6
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 0.25
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 4
	}
	if p.Deadline <= 0 {
		p.Deadline = 1
	}
	if p.BreakerThreshold <= 0 {
		p.BreakerThreshold = 3
	}
	if p.BreakerCooldown <= 0 {
		p.BreakerCooldown = 2
	}
	return p
}

// State is the circuit breaker state.
type State uint8

// Breaker states.
const (
	// StateClosed: queries flow normally.
	StateClosed State = iota
	// StateOpen: the source is presumed down; new queries park until
	// the cooldown elapses.
	StateOpen
	// StateHalfOpen: the cooldown elapsed; exactly one probe query is
	// allowed through to test the source.
	StateHalfOpen
)

// String renders the state for summaries.
func (s State) String() string {
	switch s {
	case StateClosed:
		return "closed"
	case StateOpen:
		return "open"
	case StateHalfOpen:
		return "half-open"
	default:
		return "state(?)"
	}
}

// Stats counts the client's resilience work. All counters are recovery
// accounting, not protocol cost: query complexity Q is still charged
// once per logical query, at protocol Query time.
type Stats struct {
	// Retries counts re-issued attempts after a failure.
	Retries int
	// Failures counts failed attempts; each one's kind is on the "qfail"
	// event its runtime emits.
	Failures int
	// BreakerOpens counts transitions to StateOpen (including half-open
	// probes that failed and re-opened).
	BreakerOpens int
	// Deferred counts queries parked because the breaker was open.
	Deferred int
	// DegradedTime is total time spent with the breaker not closed.
	DegradedTime float64
}

// Client is the per-peer retry/backoff/breaker state machine. It is
// runtime-agnostic: the owning runtime feeds it failures and successes
// with its own clock and acts on the returned decisions (when to retry,
// when to park, when to probe). It is not safe for concurrent use; each
// runtime confines one Client to one peer's event context.
type Client struct {
	pol           Policy
	peer          int
	state         State
	consecutive   int
	openedAt      float64
	degradedSince float64
	probing       bool
	stats         Stats
}

// NewClient returns a client for one peer under the given policy.
func NewClient(peer int, pol Policy) *Client {
	return &Client{pol: pol.withDefaults(), peer: peer}
}

// Policy returns the effective (defaulted) policy.
func (c *Client) Policy() Policy { return c.pol }

// State returns the current breaker state.
func (c *Client) State() State { return c.state }

// Stats returns the counters accumulated so far.
func (c *Client) Stats() Stats { return c.stats }

// Admit decides whether a new attempt may be issued at now. When the
// breaker is open it returns false and the time at which the caller
// should retry admission (the half-open probe moment); the caller parks
// the query until then. When the cooldown has elapsed, Admit transitions
// to half-open and admits the caller as the probe.
func (c *Client) Admit(now float64) (ok bool, wake float64) {
	switch c.state {
	case StateClosed:
		return true, 0
	case StateOpen:
		if now >= c.openedAt+c.pol.BreakerCooldown {
			c.state = StateHalfOpen
			c.probing = true
			return true, 0
		}
		c.stats.Deferred++
		return false, c.openedAt + c.pol.BreakerCooldown
	default: // StateHalfOpen
		if c.probing {
			c.stats.Deferred++
			return false, now + c.pol.BreakerCooldown
		}
		c.probing = true
		return true, 0
	}
}

// OnSuccess records a successful reply at now. A succeeding half-open
// probe closes the breaker; the caller should then flush any parked
// queries.
func (c *Client) OnSuccess(now float64) (flush bool) {
	c.consecutive = 0
	c.probing = false
	if c.state == StateClosed {
		return false
	}
	c.state = StateClosed
	c.stats.DegradedTime += now - c.degradedSince
	return true
}

// OnFailure records a failed attempt at now. attempt is the 1-based
// attempt count of the logical query (ordinal identifies it for jitter).
// Every kind of failure counts alike; the kind is the caller's to report.
// The return value directs the caller: park=true means stop retrying and
// queue the query behind the breaker until WakeAt (the breaker is now
// open); otherwise retryAt is when the next attempt should be issued.
func (c *Client) OnFailure(now float64, _ Kind, ordinal uint64, attempt int) (retryAt float64, park bool) {
	c.stats.Failures++
	c.consecutive++
	if c.state == StateHalfOpen {
		// The probe failed: the source is still down, re-open.
		c.open(now)
		return 0, true
	}
	if c.state == StateClosed && c.consecutive >= c.pol.BreakerThreshold {
		c.open(now)
		return 0, true
	}
	if attempt >= c.pol.MaxAttempts {
		// Attempts exhausted: stop hammering, park behind the breaker
		// (queries are never abandoned — the protocol still owes a
		// reply — they just wait for the source to heal).
		if c.state == StateClosed {
			c.open(now)
		}
		return 0, true
	}
	c.stats.Retries++
	return now + c.backoff(ordinal, attempt), false
}

// open transitions to StateOpen at now.
func (c *Client) open(now float64) {
	if c.state == StateClosed {
		c.degradedSince = now
	}
	c.state = StateOpen
	c.openedAt = now
	c.probing = false
	c.stats.BreakerOpens++
}

// DropProbe forgets a half-open probe whose outcome will never be
// reported (the caller that sent it is gone): the next Admit is let
// through as a fresh probe instead of waiting on it forever.
func (c *Client) DropProbe() { c.probing = false }

// WakeAt returns when an open breaker should be probed.
func (c *Client) WakeAt() float64 { return c.openedAt + c.pol.BreakerCooldown }

// backoff returns the capped exponential delay after a failed attempt
// (1-based), jittered to ±50% by the seeded mixer so concurrent peers do
// not retry in lockstep — deterministically, unlike rand-based jitter.
func (c *Client) backoff(ordinal uint64, attempt int) float64 {
	d := c.pol.BaseBackoff
	for i := 1; i < attempt && d < c.pol.MaxBackoff; i++ {
		d *= 2
	}
	if d > c.pol.MaxBackoff {
		d = c.pol.MaxBackoff
	}
	j := hashmix.MixUnit(uint64(c.pol.Seed), rollJitter,
		uint64(int64(c.peer)), ordinal, uint64(attempt))
	return d * (0.5 + j)
}

// Settle folds a still-open degraded interval into DegradedTime at the
// end of a run; runtimes call it once before reporting stats.
func (c *Client) Settle(now float64) {
	if c.state != StateClosed && now > c.degradedSince {
		c.stats.DegradedTime += now - c.degradedSince
		c.degradedSince = now
	}
}
