// Package source models the external data source as a first-class tier:
// an interface the runtimes query through, a seeded fault plan that makes
// the source unreliable (outages, rate limits, transient failures, reply
// corruption, latency), and a resilience policy (bounded retries with
// exponential backoff and seeded jitter, per-query deadlines, a circuit
// breaker with half-open probing) that the runtimes drive to keep honest
// peers live while the source misbehaves.
//
// The paper assumes a perfectly available oracle; the asynchronous
// follow-up work and "Byzantine Resilient Computing with the Cloud" both
// motivate sources that are slow, rate-limited, or intermittently
// unreachable. This package opens that scenario space with the same
// discipline netrt.FaultPlan established for the network: every fault
// decision is a pure function of (seed, identity) via hashmix.Mix64, so
// a faulty source is a replayable adversary, not a flaky test.
package source

import (
	"errors"
	"fmt"
)

// Sentinel causes a query failure wraps; match with errors.Is.
var (
	// ErrUnavailable is the cause of outage-window and transient
	// ("flaky") failures: the source actively refused or was unreachable.
	ErrUnavailable = errors.New("source unavailable")
	// ErrRateLimited is the cause of token-bucket rejections.
	ErrRateLimited = errors.New("source rate limited")
	// ErrTimeout is the cause of lost-reply failures: the client learns
	// of them only when its per-query deadline expires.
	ErrTimeout = errors.New("source query timed out")
)

// Kind classifies one query failure.
type Kind uint8

// Failure kinds. Start at 1 so the zero value is invalid.
const (
	// KindOutage: the query fell inside a planned outage window.
	KindOutage Kind = iota + 1
	// KindFlaky: a per-attempt transient failure (FailRate roll).
	KindFlaky
	// KindRateLimit: the token bucket had insufficient bits.
	KindRateLimit
	// KindTimeout: the reply was lost; surfaces after the deadline.
	KindTimeout
)

// String renders the kind for summaries and traces.
func (k Kind) String() string {
	switch k {
	case KindOutage:
		return "outage"
	case KindFlaky:
		return "flaky"
	case KindRateLimit:
		return "ratelimit"
	case KindTimeout:
		return "timeout"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Error is the typed failure every source query error surfaces as. It
// wraps the sentinel cause for its kind, so callers use errors.Is for
// coarse matching (ErrUnavailable, ErrRateLimited, ErrTimeout) and
// errors.As to recover the structured fields.
type Error struct {
	// Kind classifies the failure.
	Kind Kind
	// Peer is the querying peer.
	Peer int
	// Time is when the failure was decided (virtual units or seconds,
	// per runtime).
	Time float64
	// Attempt is the 1-based attempt number that failed.
	Attempt int
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("source: %s (peer %d, attempt %d, t=%.3f)",
		e.Kind, e.Peer, e.Attempt, e.Time)
}

// Unwrap maps the kind to its sentinel cause.
func (e *Error) Unwrap() error {
	switch e.Kind {
	case KindOutage, KindFlaky:
		return ErrUnavailable
	case KindRateLimit:
		return ErrRateLimited
	case KindTimeout:
		return ErrTimeout
	default:
		return nil
	}
}

// KindOf extracts the failure kind from any error in a query failure
// chain, or 0 if the error is not a source failure.
func KindOf(err error) Kind {
	var se *Error
	if errors.As(err, &se) {
		return se.Kind
	}
	return 0
}
