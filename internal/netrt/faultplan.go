package netrt

import (
	"fmt"
	"net"
	"time"

	"repro/internal/hashmix"
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
// hashmix.Mix64. Two runs with the same plan therefore impose the same
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
	// start. The peer reconnects; in-flight frames on the severed
	// connection are lost and recovered by the resilience layer.
	Flaps map[sim.PeerID][]time.Duration
	// Partitions lists timed cuts: while elapsed ∈ [Start, Heal), MSG
	// frames between side A and side B are dropped in both directions.
	Partitions []Partition
	// Outages take the hub's listener down: every connection is severed
	// and redials are refused until the listener is back.
	Outages []Outage
}

// Outage is one listener outage: At after run start the hub closes its
// listener and severs every connection; Down later it listens again on
// the same address, where the clients' redial backoff finds it. Down
// must fit inside the clients' reconnect budget (Resilience.Reconnect*),
// or they exhaust their redials and fail the run.
type Outage struct {
	At, Down time.Duration
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
	for _, o := range p.Outages {
		if o.At < 0 || o.Down < 0 {
			return fmt.Errorf("netrt: listener outage at %v for %v negative", o.At, o.Down)
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
	return hashmix.MixUnit(uint64(p.Seed), tag,
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
	phase := time.Duration(hashmix.MixUnit(uint64(p.Seed), rollStallPhase, uint64(int64(to))) * float64(period))
	pos := (elapsed + phase) % period
	if pos >= p.StallEvery {
		return period - pos
	}
	return 0
}

// --- the hub's side: arming the plan and applying it ------------------

// armPlan arms the plan's flaps and outages. It runs once the accept loop
// owns the listener, so an early outage races the running loop, not hub
// construction; outage may already be adding a timer of its own, so the
// list is extended under h.mu.
func (h *hub) armPlan() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for p, times := range h.plan.Flaps {
		hp := h.peers[p]
		if hp == nil {
			continue
		}
		for _, at := range times {
			h.timers = append(h.timers, time.AfterFunc(at, func() { h.flap(hp) }))
		}
	}
	for _, o := range h.plan.Outages {
		h.timers = append(h.timers, time.AfterFunc(o.At, func() { h.outage(o.Down) }))
	}
}

// flap severs hp's connection, if any; the peer redials.
func (h *hub) flap(hp *hubPeer) {
	if hp.sever() != nil {
		h.ev.peer(sim.KindFlap, hp.id, "", 0)
	}
}

// outage takes the listener down for down: it closes the listener, flaps
// every peer, and arms the re-listen. Clients redial with capped backoff
// until relisten brings the address back.
func (h *hub) outage(down time.Duration) {
	h.mu.Lock()
	ln := h.ln
	h.ln = nil
	h.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, hp := range h.peers {
		h.flap(hp)
	}
	t := time.AfterFunc(down, h.relisten)
	h.mu.Lock()
	if h.closed {
		t.Stop()
	} else {
		h.timers = append(h.timers, t)
	}
	h.mu.Unlock()
}

// relisten listens again on the hub's address and restarts the accept
// loop. The address can linger in TIME_WAIT briefly, so the bind retries;
// clients keep backing off in the meantime. The wg.Add and the listener
// install happen together under h.mu against the closed flag, so a racing
// close either sees the new listener (and closes it, ending the accept
// loop) or the re-listen abandons cleanly.
func (h *hub) relisten() {
	var ln net.Listener
	var err error
	for a := 0; a < 100; a++ {
		h.mu.Lock()
		closed := h.closed
		h.mu.Unlock()
		if closed {
			return
		}
		if ln, err = listen(h.addr); err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		return // the clients exhaust their redials and fail the run
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		ln.Close()
		return
	}
	h.ln = ln
	h.wg.Add(1)
	h.mu.Unlock()
	go h.acceptLoop(ln) // balances the wg.Add above via its own Done
}

// sever closes hp's connection, if any, and returns it.
func (hp *hubPeer) sever() *frameConn {
	hp.mu.Lock()
	conn := hp.conn
	hp.conn = nil
	hp.mu.Unlock()
	if conn != nil {
		conn.Close()
		conn.poke()
	}
	return conn
}

// fate puts an attempt of f toward hp to the fault plan (hp.mu held): it
// reports whether the attempt goes out now, and schedules its delayed and
// duplicate copies. Decisions are keyed by (link, seq, attempt), so the
// schedule replays yet a lossy link still delivers eventually.
func (h *hub) fate(hp *hubPeer, f outFrame, attempt int) bool {
	if h.plan == nil {
		return true
	}
	// A MSG's number is its sender; the rest come from the source.
	kind, seq, p, from := f.kind, f.seq, f.p, srcID
	if kind == kMsg {
		from = sim.PeerID(p.num)
	}
	elapsed := time.Since(h.start)
	if h.plan.dropFrame(from, hp.id, seq, attempt, elapsed) {
		hp.planDropped++
		h.met.planDrop(int(hp.id))
		return false
	}
	delay := h.plan.delayFor(from, hp.id, seq, attempt) + h.plan.stallRemaining(hp.id, elapsed)
	// A held-back copy goes to hp's connection of the moment, if any.
	later := func(d time.Duration) {
		h.after(d, func() {
			hp.mu.Lock()
			if hp.conn != nil {
				hp.conn.owe(kind, seq, p)
			}
			hp.mu.Unlock()
		})
	}
	if h.plan.dupFrame(from, hp.id, seq, attempt) {
		hp.planDuped++
		h.met.planDupe(int(hp.id))
		later(h.plan.dupDelayFor(from, hp.id, seq, attempt))
	}
	if delay > 0 {
		later(delay)
		return false
	}
	return true
}
