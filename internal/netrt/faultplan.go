package netrt

import (
	"fmt"
	"time"

	"repro/internal/adversary"
	"repro/internal/sim"
)

// srcID is the "sender" of source query replies in fault decisions. The
// trusted source sits on no side of any partition, but its replies still
// cross a lossy last hop, so drop/dup/delay apply to them.
const srcID = sim.PeerID(-1)

// FaultPlan is a seeded network fault schedule the hub applies on its
// delivery legs (the hub plays the network, so every peer-to-peer message
// and every query reply crosses exactly one planned hop). Each per-frame
// decision — drop, duplicate, extra delay — is a pure function of
// (Seed, sender, receiver, stream sequence number, attempt), computed via
// adversary.Mix64. Two runs with the same plan therefore impose the same
// fault schedule on the same traffic, no matter how goroutines interleave:
// the one non-reproducible runtime gets a replayable adversary.
//
// Liveness under a plan comes from the resilience layer, not from the
// plan being gentle: dropped MSG and reply frames are retransmitted until
// acked (each attempt rolls a fresh decision, so a drop rate < 1 delivers
// eventually — the fair-loss to reliable-link construction), and severed
// connections are redialed with backoff. Partitions must heal
// (Heal < ∞) for runs to terminate, mirroring the model's finite-delay
// requirement.
type FaultPlan struct {
	// Seed selects the fault landscape. Runs with equal Seed (and equal
	// rates) make identical per-frame decisions.
	Seed int64
	// Drop is the per-attempt probability that a payload frame (MSG,
	// QREPLY) is discarded instead of written. Must be in [0, 1).
	Drop float64
	// Dup is the probability that a delivery is written twice; the
	// receiver's dedup layer discards the copy.
	Dup float64
	// Delay is the maximum uniform extra latency added to a delivery.
	// Distinct frames get independent delays, so later frames overtake
	// earlier ones: jitter doubles as reordering.
	Delay time.Duration
	// Reorder is the probability a delivery is additionally held for
	// 4×Delay, forcing overtakes even at low jitter.
	Reorder float64
	// StallEvery/StallFor impose bandwidth-style stalls: each link
	// (phase-shifted per receiver) alternates StallEvery open with
	// StallFor stalled, during which deliveries are held, not dropped.
	StallEvery time.Duration
	StallFor   time.Duration
	// Flaps severs a peer's connection at each listed offset from run
	// start. Unlike Config.KillAfter, the peer may reconnect; in-flight
	// frames on the severed connection are lost and recovered by the
	// resilience layer.
	Flaps map[sim.PeerID][]time.Duration
	// Partitions lists timed cuts: while elapsed ∈ [Start, Heal), MSG
	// frames between side A and side B are dropped in both directions.
	Partitions []Partition
}

// Partition is one timed network cut that later heals.
type Partition struct {
	A, B        []sim.PeerID
	Start, Heal time.Duration
}

func (pt *Partition) side(p sim.PeerID, side []sim.PeerID) bool {
	for _, q := range side {
		if q == p {
			return true
		}
	}
	return false
}

// separates reports whether the cut lies between from and to.
func (pt *Partition) separates(from, to sim.PeerID) bool {
	return (pt.side(from, pt.A) && pt.side(to, pt.B)) ||
		(pt.side(from, pt.B) && pt.side(to, pt.A))
}

func (p *FaultPlan) validate(n int) error {
	check := func(name string, v float64) error {
		if v < 0 || v >= 1 {
			return fmt.Errorf("netrt: fault plan %s=%v outside [0, 1)", name, v)
		}
		return nil
	}
	if err := check("Drop", p.Drop); err != nil {
		return err
	}
	if err := check("Dup", p.Dup); err != nil {
		return err
	}
	if err := check("Reorder", p.Reorder); err != nil {
		return err
	}
	if p.Delay < 0 || p.StallEvery < 0 || p.StallFor < 0 {
		return fmt.Errorf("netrt: fault plan has negative duration")
	}
	if (p.StallEvery > 0) != (p.StallFor > 0) {
		return fmt.Errorf("netrt: StallEvery and StallFor must be set together")
	}
	for peer, times := range p.Flaps {
		if peer < 0 || int(peer) >= n {
			return fmt.Errorf("netrt: flap peer %d out of range", peer)
		}
		for _, at := range times {
			if at < 0 {
				return fmt.Errorf("netrt: flap time %v negative", at)
			}
		}
	}
	for i, pt := range p.Partitions {
		if pt.Start < 0 || pt.Heal <= pt.Start {
			return fmt.Errorf("netrt: partition %d window [%v, %v) invalid (must heal)", i, pt.Start, pt.Heal)
		}
		for _, side := range [][]sim.PeerID{pt.A, pt.B} {
			for _, q := range side {
				if q < 0 || int(q) >= n {
					return fmt.Errorf("netrt: partition %d peer %d out of range", i, q)
				}
			}
		}
		for _, q := range pt.A {
			if pt.side(q, pt.B) {
				return fmt.Errorf("netrt: partition %d peer %d on both sides", i, q)
			}
		}
	}
	return nil
}

// Decision-kind tags keep the drop/dup/delay/reorder/stall rolls of one
// frame mutually independent.
const (
	rollDrop uint64 = iota + 1
	rollDup
	rollDelay
	rollReorder
	rollStallPhase
	rollDupDelay
)

func (p *FaultPlan) roll(tag uint64, from, to sim.PeerID, seq uint64, attempt int) float64 {
	return adversary.MixUnit(uint64(p.Seed), tag,
		uint64(int64(from)), uint64(int64(to)), seq, uint64(attempt))
}

// dropFrame decides whether this delivery attempt is discarded, either by
// an active partition or by the drop rate.
func (p *FaultPlan) dropFrame(from, to sim.PeerID, seq uint64, attempt int, elapsed time.Duration) bool {
	if p.partitioned(from, to, elapsed) {
		return true
	}
	return p.Drop > 0 && p.roll(rollDrop, from, to, seq, attempt) < p.Drop
}

func (p *FaultPlan) partitioned(from, to sim.PeerID, elapsed time.Duration) bool {
	for i := range p.Partitions {
		pt := &p.Partitions[i]
		if elapsed >= pt.Start && elapsed < pt.Heal && pt.separates(from, to) {
			return true
		}
	}
	return false
}

// dupFrame decides whether this delivery is written twice.
func (p *FaultPlan) dupFrame(from, to sim.PeerID, seq uint64, attempt int) bool {
	return p.Dup > 0 && p.roll(rollDup, from, to, seq, attempt) < p.Dup
}

// delayFor returns the extra latency for this delivery (jitter plus an
// occasional reordering hold).
func (p *FaultPlan) delayFor(from, to sim.PeerID, seq uint64, attempt int) time.Duration {
	var d time.Duration
	if p.Delay > 0 {
		d = time.Duration(p.roll(rollDelay, from, to, seq, attempt) * float64(p.Delay))
	}
	if p.Delay > 0 && p.Reorder > 0 && p.roll(rollReorder, from, to, seq, attempt) < p.Reorder {
		d += 4 * p.Delay
	}
	return d
}

// dupDelayFor returns the latency of the duplicated copy; offset from the
// original so the copy genuinely races it.
func (p *FaultPlan) dupDelayFor(from, to sim.PeerID, seq uint64, attempt int) time.Duration {
	base := p.delayFor(from, to, seq, attempt)
	if p.Delay > 0 {
		base += time.Duration(p.roll(rollDupDelay, from, to, seq, attempt) * float64(p.Delay))
	}
	return base + time.Millisecond
}

// stallRemaining returns how long deliveries toward `to` are currently
// stalled (0 when the link is open). Links alternate StallEvery open with
// StallFor stalled, phase-shifted per receiver so the whole network never
// pauses in lockstep.
func (p *FaultPlan) stallRemaining(to sim.PeerID, elapsed time.Duration) time.Duration {
	if p.StallEvery <= 0 || p.StallFor <= 0 {
		return 0
	}
	period := p.StallEvery + p.StallFor
	phase := time.Duration(adversary.MixUnit(uint64(p.Seed), rollStallPhase, uint64(int64(to))) * float64(period))
	pos := (elapsed + phase) % period
	if pos >= p.StallEvery {
		return period - pos
	}
	return 0
}
