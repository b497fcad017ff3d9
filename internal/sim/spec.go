package sim

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/bitarray"
	"repro/internal/obs"
	"repro/internal/source"
)

// Config carries the DR-model parameters of one execution.
type Config struct {
	// N is the number of peers (n). Must be at least 2.
	N int
	// T is the maximum number of faulty peers (t = βn).
	T int
	// L is the input array length in bits.
	L int
	// MsgBits is the message-size parameter b in bits. Messages larger
	// than b are accounted as multiple messages. Must be positive.
	MsgBits int
	// Seed drives all simulation randomness: the input array (when Input
	// is nil), per-peer protocol randomness, and seeded delay policies
	// constructed from it.
	Seed int64
	// Input optionally fixes the source array X; when nil a uniformly
	// random array of L bits derived from Seed is used.
	Input *bitarray.Array
	// MaxEvents caps the number of delivered events as a non-termination
	// safety net; 0 selects a generous default scaled to N and L.
	MaxEvents int
}

// Beta returns the fault fraction t/n.
func (c *Config) Beta() float64 { return float64(c.T) / float64(c.N) }

// Validate reports configuration errors.
func (c *Config) Validate() error {
	switch {
	case c.N < 2:
		return fmt.Errorf("sim: need at least 2 peers, have %d", c.N)
	case c.T < 0 || c.T >= c.N:
		return fmt.Errorf("sim: fault bound t=%d outside [0, n) for n=%d", c.T, c.N)
	case c.L <= 0:
		return fmt.Errorf("sim: input length L=%d must be positive", c.L)
	case c.MsgBits <= 0:
		return fmt.Errorf("sim: message size b=%d must be positive", c.MsgBits)
	case c.Input != nil && c.Input.Len() != c.L:
		return fmt.Errorf("sim: input length %d does not match L=%d", c.Input.Len(), c.L)
	}
	return nil
}

// ResolveInput returns the execution's input array, generating a seeded
// random one when Config.Input is nil.
func (c *Config) ResolveInput() *bitarray.Array {
	if c.Input != nil {
		return c.Input
	}
	return bitarray.Random(rand.New(rand.NewSource(c.Seed^0x5eed1247)), c.L)
}

// EventCap returns the effective MaxEvents bound.
func (c *Config) EventCap() int {
	if c.MaxEvents > 0 {
		return c.MaxEvents
	}
	// Generous: protocols here use O(n^2) messages per phase and
	// O(log)-many phases; queries add O(n·L/b). Scale and floor.
	capEvents := 600*c.N*c.N + 64*c.N*(c.L/c.MsgBits+1) + 1_000_000
	return capEvents
}

// Spec fully describes one execution: parameters, honest protocol factory,
// delay adversary, and fault pattern.
type Spec struct {
	Config Config
	// NewPeer constructs the honest protocol instance for peer id.
	NewPeer func(id PeerID) Peer
	// Delays is the adversary's scheduling policy. des.Run requires it.
	Delays DelayPolicy
	// Faults lists the faulty peers' fates; the zero value is a
	// failure-free execution.
	Faults Faults
	// SourceFaults, when non-nil and enabled, makes the external source
	// unreliable per the plan; runtimes route every query through it and
	// drive a per-peer retry/backoff/breaker client (package source).
	// Nil keeps the paper's perfectly available oracle.
	SourceFaults *source.FaultPlan
	// SourcePolicy tunes the per-peer resilience client. The zero value
	// selects defaults; it is consulted only when SourceFaults is
	// enabled (a clean source needs no resilience).
	SourcePolicy source.Policy
	// Mirrors, when non-nil and enabled, routes queries through an
	// untrusted mirror fleet with Merkle-verified replies: peers prefer
	// a seeded mirror choice and fall back to the authoritative source
	// (itself subject to SourceFaults) whenever a proof fails. Only
	// verified bits are charged into Q. Nil keeps direct source access.
	Mirrors *source.MirrorPlan
	// Warm, when non-nil, holds one tracker per peer (nil for none) of
	// bits already verified from the source, as a hardening supervisor
	// carries from one rung to the next. The runtime serves a peer's
	// queries from its tracker where it can, charging only the rest to Q
	// and counting the rest in PeerStats.WarmHitBits, and extends the
	// tracker with every reply; a Byzantine peer's tracker is not used.
	Warm []*bitarray.Tracker
	// Observer, when non-nil, receives a structured callback for every
	// start, send, delivery, query, phase mark, crash, and termination,
	// on either scheduler. See package trace for a JSONL recorder and
	// analyzer, and TimelineObserver for an obs.Timeline view.
	Observer Observer
	// Metrics, when non-nil, receives the protocol series folded from
	// the event stream (MetricsObserver, prefix dr_sim), the query plane's
	// totals (PublishPlane) and the engine's event-loop stats. The
	// registry is concurrency-safe, so unlike an Observer it may be
	// shared by runs executing at once. Nil disables all metric
	// collection at zero cost (see package obs).
	Metrics *obs.Registry
	// Label identifies this execution in metric series (the "protocol"
	// label). Empty means the series are emitted without resolution by
	// protocol; runtimes substitute "unknown".
	Label string
	// Deadline, when positive, aborts the execution once the virtual
	// clock passes this many time units. The cut-off is reported via
	// Result.DeadlineHit; peers still running count as non-terminated.
	// Zero means no deadline (the event cap still applies).
	Deadline float64
}

// Runner executes one spec on a runtime: des.New().Run on the simulator,
// or netrt.Runner's closure over real sockets.
type Runner func(*Spec) (*Result, error)

// PeerWarm is the tracker peer i's query plane is seeded with, given its
// fate: its Warm entry, unless a Byzantine behavior runs in its place.
func (s *Spec) PeerWarm(i int, fate *Fate) *bitarray.Tracker {
	if s.Warm == nil || (fate != nil && fate.Byzantine != nil) {
		return nil
	}
	return s.Warm[i]
}

// Validate reports spec-level errors. It leaves Delays to des.Run: a
// choice-driven or socket run has none.
func (s *Spec) Validate() error {
	if err := s.Config.Validate(); err != nil {
		return err
	}
	if s.NewPeer == nil {
		return errors.New("sim: spec missing NewPeer factory")
	}
	if err := s.Faults.Validate(s.Config.N, s.Config.T); err != nil {
		return err
	}
	if s.Warm != nil && len(s.Warm) != s.Config.N {
		return fmt.Errorf("sim: %d warm trackers for n=%d", len(s.Warm), s.Config.N)
	}
	for i, w := range s.Warm {
		if w != nil && w.Len() != s.Config.L {
			return fmt.Errorf("sim: peer %d's warm tracker covers %d bits, not L=%d", i, w.Len(), s.Config.L)
		}
	}
	if s.SourceFaults != nil {
		if err := s.SourceFaults.Validate(); err != nil {
			return err
		}
	}
	if s.Mirrors != nil {
		if err := s.Mirrors.Validate(); err != nil {
			return err
		}
	}
	return nil
}
