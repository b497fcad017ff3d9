package harden

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// Collector is a sim.Observer that accumulates assumption-violation
// evidence while an attempt runs:
//
//   - Equivocation: two well-formed messages from one sender whose claims
//     (sim.Claimer) assign conflicting values to the same segment or
//     index. In this model channels authenticate senders, so that is
//     proof the sender is faulty. Equivocation by up to t peers is within
//     the assumptions every protocol here tolerates; the supervisor
//     escalates only when the number of *distinct* proven-faulty peers
//     exceeds t — a falsification of the execution's fault bound.
//   - Progress tracking for starvation attribution: the last time each
//     peer started, marked a phase (sim.MarkPhase), queried, received a
//     reply, or terminated. When a run is cut off (deadline, deadlock,
//     event cap), Starved names the peers that had been stalled past the
//     phase deadline and the phase they were stuck in.
//
// The collector chains to an optional next observer so user-supplied
// observers keep working under the supervisor. It reads the one event
// stream every runtime emits, so it runs off des and off sockets alike.
type Collector struct {
	phaseDeadline float64
	now           float64
	next          sim.Observer

	claims       map[claimKey]uint64
	equivocators map[sim.PeerID]bool
	evidence     []Equivocation
	buf          []sim.Claim

	progress []peerProgress
}

type claimKey struct {
	peer   sim.PeerID
	domain string
	key    int64
}

// Equivocation is one piece of conflicting-claim evidence.
type Equivocation struct {
	// Peer is the proven-faulty sender.
	Peer sim.PeerID
	// Domain/Key identify the claim both messages disagreed on.
	Domain string
	Key    int64
}

func (e Equivocation) String() string {
	return fmt.Sprintf("peer %d equivocated on %s/%d", e.Peer, e.Domain, e.Key)
}

// Starvation attributes a stalled peer after a cut-off run.
type Starvation struct {
	Peer sim.PeerID
	// Phase is the last phase the peer marked ("" if none).
	Phase string
	// Stalled is how long the peer had made no progress when the run was
	// cut off, in the runtime's time units.
	Stalled float64
}

func (s Starvation) String() string {
	if s.Phase == "" {
		return fmt.Sprintf("peer %d stalled for %.1f units", s.Peer, s.Stalled)
	}
	return fmt.Sprintf("peer %d stalled in phase %q for %.1f units", s.Peer, s.Phase, s.Stalled)
}

type peerProgress struct {
	started    bool
	terminated bool
	last       float64
	phase      string
}

// NewCollector returns a collector for n peers. phaseDeadline (in runtime
// time units) bounds how long a peer may go without progress before
// Starved reports it; 0 disables starvation attribution. next, when
// non-nil, receives every event after the collector processed it.
func NewCollector(n int, phaseDeadline float64, next sim.Observer) *Collector {
	return &Collector{
		phaseDeadline: phaseDeadline,
		next:          next,
		claims:        make(map[claimKey]uint64),
		equivocators:  make(map[sim.PeerID]bool),
		progress:      make([]peerProgress, n),
	}
}

// OnEvent implements sim.Observer.
func (c *Collector) OnEvent(ev sim.ObservedEvent) {
	if ev.Time > c.now {
		c.now = ev.Time
	}
	switch ev.Kind {
	case "send":
		// Claims are checked at send time: every emission counts, even
		// ones crafted per-receiver (the classic equivocation pattern).
		if cl, ok := ev.Msg.(sim.Claimer); ok && !c.equivocators[ev.Peer] {
			c.buf = cl.Claims(c.buf[:0])
			for _, claim := range c.buf {
				k := claimKey{ev.Peer, claim.Domain, claim.Key}
				prev, seen := c.claims[k]
				if !seen {
					c.claims[k] = claim.Value
					continue
				}
				if prev != claim.Value {
					c.equivocators[ev.Peer] = true
					c.evidence = append(c.evidence, Equivocation{ev.Peer, claim.Domain, claim.Key})
					break
				}
			}
		}
	case "start", "phase", "query", "qreply", "terminate":
		if int(ev.Peer) < len(c.progress) {
			p := &c.progress[ev.Peer]
			p.started = true
			p.last = ev.Time
			switch ev.Kind {
			case "phase":
				p.phase = ev.Name
			case "terminate":
				p.terminated = true
			}
		}
	}
	if c.next != nil {
		c.next.OnEvent(ev)
	}
}

// Equivocators returns the distinct peers with equivocation evidence, in
// ascending ID order.
func (c *Collector) Equivocators() []sim.PeerID {
	out := make([]sim.PeerID, 0, len(c.equivocators))
	for p := range c.equivocators {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Evidence returns one equivocation witness per proven-faulty peer.
func (c *Collector) Evidence() []Equivocation {
	return append([]Equivocation(nil), c.evidence...)
}

// Starved returns the started, non-terminated peers whose last progress
// lies more than the phase deadline before the collector's latest
// timestamp. Call it after a cut-off run to attribute the stall; it is
// not a violation by itself (an asynchronous run that ended cleanly may
// leave faulty peers unterminated forever).
func (c *Collector) Starved() []Starvation {
	if c.phaseDeadline <= 0 {
		return nil
	}
	var out []Starvation
	for id := range c.progress {
		p := &c.progress[id]
		if !p.started || p.terminated {
			continue
		}
		if stall := c.now - p.last; stall > c.phaseDeadline {
			out = append(out, Starvation{Peer: sim.PeerID(id), Phase: p.phase, Stalled: stall})
		}
	}
	return out
}
