// Package adversary implements the adversary of the DR model: scheduling
// policies that assign finite delays to every message and query
// (sim.DelayPolicy), random crash points for crash fates (sim.Fate), and
// generic Byzantine behaviors. Protocol-specific Byzantine attackers live next to
// the protocols they target.
//
// Delays are normalized so that one virtual time unit is the maximum
// latency of the default policy, matching the paper's time analysis.
package adversary

import (
	"math/rand"
	"sync"

	"repro/internal/sim"
)

// Fixed assigns the same delay D to every message and query and starts all
// peers at time 0. With D = 1 it models the lock-step worst case of the
// asynchronous analysis.
type Fixed struct {
	// D is the delay applied to every delivery; must be positive.
	D float64
}

var _ sim.DelayPolicy = (*Fixed)(nil)

// NewFixed returns a fixed-delay policy.
func NewFixed(d float64) *Fixed { return &Fixed{D: d} }

// MessageDelay implements sim.DelayPolicy.
func (f *Fixed) MessageDelay(_, _ sim.PeerID, _ float64, _ int) float64 { return f.D }

// QueryDelay implements sim.DelayPolicy.
func (f *Fixed) QueryDelay(_ sim.PeerID, _ float64) float64 { return f.D }

// StartDelay implements sim.DelayPolicy.
func (f *Fixed) StartDelay(_ sim.PeerID) float64 { return 0 }

// Random assigns independent uniform delays in (Min, Max] to every
// delivery and staggers peer start times uniformly in [0, Max). It is
// safe for concurrent use; under the des runtime, calls occur in a
// deterministic order, so executions are reproducible from the seed.
type Random struct {
	mu  sync.Mutex
	rng *rand.Rand
	min float64
	max float64
	// stagger controls whether peers start at random offsets.
	stagger bool
}

var _ sim.DelayPolicy = (*Random)(nil)

// NewRandom returns a seeded random-delay policy over (min, max].
func NewRandom(seed int64, min, max float64) *Random {
	if min < 0 || max <= min {
		panic("adversary: need 0 <= min < max")
	}
	return &Random{rng: rand.New(rand.NewSource(seed)), min: min, max: max, stagger: true}
}

// NewRandomUnit returns the default normalized policy: delays in (0, 1].
func NewRandomUnit(seed int64) *Random { return NewRandom(seed, 0, 1) }

func (r *Random) draw() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.min + (r.max-r.min)*(1-r.rng.Float64()) // in (min, max]
}

// MessageDelay implements sim.DelayPolicy.
func (r *Random) MessageDelay(_, _ sim.PeerID, _ float64, _ int) float64 { return r.draw() }

// QueryDelay implements sim.DelayPolicy.
func (r *Random) QueryDelay(_ sim.PeerID, _ float64) float64 { return r.draw() }

// StartDelay implements sim.DelayPolicy.
func (r *Random) StartDelay(_ sim.PeerID) float64 {
	if !r.stagger {
		return 0
	}
	return r.draw() - r.min // in (0, max-min]
}

// TargetedSlow wraps a base policy and inflates the latency of every
// message sent BY peers in Slow to Delay. This is the adversary of the
// lower-bound constructions (Theorems 3.1/3.2): it isolates a victim from
// a chosen set of peers for long enough that the victim terminates without
// ever hearing from them, while still delivering every message eventually
// (finite delays, as the model requires).
type TargetedSlow struct {
	// Base supplies delays for unaffected traffic. Required.
	Base sim.DelayPolicy
	// Slow is the set of peers whose outgoing messages are delayed.
	Slow map[sim.PeerID]bool
	// Delay is the inflated latency; choose it larger than any plausible
	// termination time of the victim.
	Delay float64
	// SlowIncoming additionally delays messages sent TO slow peers,
	// fully partitioning them.
	SlowIncoming bool
}

var _ sim.DelayPolicy = (*TargetedSlow)(nil)

// NewTargetedSlow builds a TargetedSlow policy over base delaying the
// outgoing traffic of slow peers by delay.
func NewTargetedSlow(base sim.DelayPolicy, slow []sim.PeerID, delay float64) *TargetedSlow {
	m := make(map[sim.PeerID]bool, len(slow))
	for _, p := range slow {
		m[p] = true
	}
	return &TargetedSlow{Base: base, Slow: m, Delay: delay}
}

// MessageDelay implements sim.DelayPolicy.
func (t *TargetedSlow) MessageDelay(from, to sim.PeerID, now float64, size int) float64 {
	if t.Slow[from] || (t.SlowIncoming && t.Slow[to]) {
		return t.Delay
	}
	return t.Base.MessageDelay(from, to, now, size)
}

// QueryDelay implements sim.DelayPolicy.
func (t *TargetedSlow) QueryDelay(p sim.PeerID, now float64) float64 {
	return t.Base.QueryDelay(p, now)
}

// StartDelay implements sim.DelayPolicy.
func (t *TargetedSlow) StartDelay(p sim.PeerID) float64 { return t.Base.StartDelay(p) }

// SlowQueries wraps a base policy and inflates source-query latency by
// Factor, modeling the paper's premise that the source is the expensive,
// distant component. Useful in time-complexity experiments.
type SlowQueries struct {
	// Base supplies the underlying delays. Required.
	Base sim.DelayPolicy
	// Factor multiplies every query delay; must be positive.
	Factor float64
}

var _ sim.DelayPolicy = (*SlowQueries)(nil)

// MessageDelay implements sim.DelayPolicy.
func (s *SlowQueries) MessageDelay(from, to sim.PeerID, now float64, size int) float64 {
	return s.Base.MessageDelay(from, to, now, size)
}

// QueryDelay implements sim.DelayPolicy.
func (s *SlowQueries) QueryDelay(p sim.PeerID, now float64) float64 {
	return s.Base.QueryDelay(p, now) * s.Factor
}

// StartDelay implements sim.DelayPolicy.
func (s *SlowQueries) StartDelay(p sim.PeerID) float64 { return s.Base.StartDelay(p) }
