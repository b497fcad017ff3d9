package sim

import (
	"fmt"

	"repro/internal/bitarray"
)

// Fate is what the adversary does to one faulty peer, on every runtime.
// A peer with a fate counts toward the fault bound t and is reported
// faulty, so correctness aggregates never depend on it, whatever it does.
type Fate struct {
	// Peer is the faulty peer.
	Peer PeerID
	// CrashAfter is the number of actions the peer takes before it
	// crashes; each send attempt and each event delivery is one action,
	// so a crash point between two sends of one Broadcast models the
	// paper's "sent some, but perhaps not all" mid-operation crash. 0
	// means the peer never acts (it crashes at its first action, and on
	// sockets never connects); below 0, it never crashes.
	CrashAfter int
	// Downtime ≥ 0 makes a crashed peer rejoin after that long (virtual
	// time units on des, seconds on sockets) as a fresh instance that
	// resumes from its persisted source-verified bits, served warm by its
	// query plane. Below 0, a crash is final.
	Downtime float64
	// Byzantine, when non-nil, builds the behavior run in place of
	// Spec.NewPeer at this peer.
	Byzantine func(id PeerID, k *Knowledge) Peer
}

// ChurnPeer is a Fate under its former name.
//
// Deprecated: use Fate. It stays because the benchmark harness names it.
type ChurnPeer = Fate

// Rejoins reports whether the peer crashes and later rejoins; false for a
// nil fate, an honest peer's.
func (f *Fate) Rejoins() bool { return f != nil && f.CrashAfter >= 0 && f.Downtime >= 0 }

// Absent reports whether the peer never acts and never rejoins (on
// sockets it never connects); false for a nil fate.
func (f *Fate) Absent() bool { return f != nil && f.CrashAfter == 0 && f.Downtime < 0 }

// Crashes returns one fate per peer, each crashing after the given number
// of actions and never rejoining. Point 0 crashes a peer before it
// performs any action — the peer never exists, the harshest schedule for
// "wait for n−t" arguments.
func Crashes(peers []PeerID, after int) []Fate {
	fates := make([]Fate, len(peers))
	for i, p := range peers {
		fates[i] = Fate{Peer: p, CrashAfter: after, Downtime: -1}
	}
	return fates
}

// Byzantines returns one fate per peer, each running newByz's behavior
// and never crashing.
func Byzantines(peers []PeerID, newByz func(id PeerID, k *Knowledge) Peer) []Fate {
	fates := make([]Fate, len(peers))
	for i, p := range peers {
		fates[i] = Fate{Peer: p, CrashAfter: -1, Downtime: -1, Byzantine: newByz}
	}
	return fates
}

// Faults is an execution's failure pattern: one fate per faulty peer.
// The zero value is a failure-free execution.
type Faults struct {
	Fates []Fate
	// AllowExcess permits more than t fates. It exists for two regimes
	// where the listed faults legitimately exceed the static bound: the
	// dynamic-corruption model (see adversary.Rotating), where the fates
	// list the *union* of peers ever corrupted while the number corrupted
	// at any instant stays ≤ t; and assumption-violation studies
	// (download.Options.AllowExcessFaults, package harden), which
	// deliberately run a protocol outside its fault bound to exercise the
	// detect-and-escalate machinery. Ordinary static runs leave it false.
	AllowExcess bool
}

// Validate checks the fates against n peers and the fault bound t: every
// peer in range, none listed twice, none with a downtime but no crash, at
// most t fates unless AllowExcess, and at least one honest peer always.
func (f Faults) Validate(n, t int) error {
	seen := make(map[PeerID]bool, len(f.Fates))
	for _, fate := range f.Fates {
		if fate.Peer < 0 || int(fate.Peer) >= n {
			return fmt.Errorf("sim: faulty peer %d out of range [0, %d)", fate.Peer, n)
		}
		if seen[fate.Peer] {
			return fmt.Errorf("sim: duplicate faulty peer %d", fate.Peer)
		}
		seen[fate.Peer] = true
		if fate.CrashAfter < 0 && fate.Downtime >= 0 {
			return fmt.Errorf("sim: peer %d has a downtime but never crashes", fate.Peer)
		}
	}
	if len(f.Fates) > t && !f.AllowExcess {
		return fmt.Errorf("sim: %d faulty peers exceeds bound t=%d", len(f.Fates), t)
	}
	if len(f.Fates) >= n {
		return fmt.Errorf("sim: %d faulty peers leaves no honest peer", len(f.Fates))
	}
	return nil
}

// ByPeer indexes the fates by peer: entry p is p's fate, or nil for an
// honest peer. The fates must have passed Validate for n.
func (f Faults) ByPeer(n int) []*Fate {
	by := make([]*Fate, n)
	for i := range f.Fates {
		by[f.Fates[i].Peer] = &f.Fates[i]
	}
	return by
}

// Knowledge is what the adversary knows when constructing Byzantine
// behaviors: the full input, the execution config and the Byzantine peers,
// in the order of their fates. One value is shared by every Byzantine peer
// of a run, on sockets across goroutines, so behaviors only read it; each
// draws randomness from its own Context.Rand.
type Knowledge struct {
	Input  *bitarray.Array
	Config Config
	Faulty []PeerID
}

// Knowledge returns what the run's Byzantine behaviors know, or nil when
// no fate is Byzantine.
func (f Faults) Knowledge(input *bitarray.Array, cfg Config) *Knowledge {
	var byz []PeerID
	for _, fate := range f.Fates {
		if fate.Byzantine != nil {
			byz = append(byz, fate.Peer)
		}
	}
	if byz == nil {
		return nil
	}
	return &Knowledge{Input: input, Config: cfg, Faulty: byz}
}
