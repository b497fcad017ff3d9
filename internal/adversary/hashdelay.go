package adversary

import (
	"repro/internal/hashmix"
	"repro/internal/sim"
)

// HashDelay assigns pseudo-random delays that are a pure function of
// (seed, endpoint pair, per-pair message ordinal). Unlike Random — which
// draws from one shared stream, so any behavioral change anywhere shifts
// every later delay — HashDelay gives each channel an independent,
// reproducible latency sequence. This is exactly the adversary the
// lower-bound constructions need: two executions in which a channel
// carries the same message sequence see identical latencies on that
// channel, no matter what happens elsewhere. Its per-pair ordinals belong
// to one goroutine, as with every sim.DelayPolicy.
type HashDelay struct {
	// Seed selects the latency landscape.
	Seed int64
	// Min and Max bound message and query delays: (Min, Max].
	Min, Max float64

	msgSeq map[[2]sim.PeerID]uint64
	qrySeq map[sim.PeerID]uint64
}

var _ sim.DelayPolicy = (*HashDelay)(nil)

// NewHashDelay returns a pair-deterministic policy over (min, max].
func NewHashDelay(seed int64, min, max float64) *HashDelay {
	if min < 0 || max <= min {
		panic("adversary: need 0 <= min < max")
	}
	return &HashDelay{
		Seed:   seed,
		Min:    min,
		Max:    max,
		msgSeq: make(map[[2]sim.PeerID]uint64),
		qrySeq: make(map[sim.PeerID]uint64),
	}
}

func (p *HashDelay) delay(h uint64) float64 {
	return p.Min + (p.Max-p.Min)*hashmix.Unit(h)
}

// MessageDelay implements sim.DelayPolicy.
func (p *HashDelay) MessageDelay(from, to sim.PeerID, _ float64, _ int) float64 {
	key := [2]sim.PeerID{from, to}
	seq := p.msgSeq[key]
	p.msgSeq[key] = seq + 1
	h := hashmix.Mix(uint64(p.Seed) ^ hashmix.Mix(uint64(from)<<32|uint64(uint32(to))) ^ hashmix.Mix(seq+0x9E37))
	return p.delay(h)
}

// QueryDelay implements sim.DelayPolicy.
func (p *HashDelay) QueryDelay(peer sim.PeerID, _ float64) float64 {
	seq := p.qrySeq[peer]
	p.qrySeq[peer] = seq + 1
	h := hashmix.Mix(uint64(p.Seed) ^ hashmix.Mix(uint64(peer)+0xABCD) ^ hashmix.Mix(seq+0x51AF))
	return p.delay(h)
}

// StartDelay implements sim.DelayPolicy.
func (p *HashDelay) StartDelay(peer sim.PeerID) float64 {
	h := hashmix.Mix(uint64(p.Seed) ^ hashmix.Mix(uint64(peer)+0xF00D))
	return (p.Max - p.Min) * hashmix.Unit(h)
}
