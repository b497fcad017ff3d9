package dst

import "repro/internal/sim"

// Cell is a crash-fault configuration given by a peer factory instead of
// a registry name: what package explore enumerates the schedules of.
type Cell struct {
	N, T, L, MsgBits int
	Seed             int64
	NewPeer          func(sim.PeerID) sim.Peer
	// CrashPoints crashes the listed peers (the faulty set) at action
	// counts.
	CrashPoints map[sim.PeerID]int
}

// RunPrefix executes the cell once under the schedule "prefix, then
// FIFO". radix holds the fan-out at each of the first depth decision
// points — the digit radixes of the explorer's mixed-radix odometer.
func RunPrefix(c Cell, prefix []int, depth int) (out *Outcome, radix []int) {
	var faults sim.FaultSpec
	if len(c.CrashPoints) > 0 {
		faults.Model, faults.Crash = sim.FaultCrash, crashMap(c.CrashPoints)
		for id := range c.CrashPoints {
			faults.Faulty = append(faults.Faulty, id)
		}
	}
	spec := lower(sim.Config{N: c.N, T: c.T, L: c.L, MsgBits: c.MsgBits, Seed: c.Seed}, c.NewPeer, faults)
	out, err := run(spec, func(d, fanout int) int {
		if d >= depth {
			return 0
		}
		radix = append(radix, fanout)
		if d < len(prefix) {
			return prefix[d]
		}
		return 0
	})
	if err != nil {
		// Cells are written in code, not read from files: a bad one is a bug
		// at the call site.
		panic(err)
	}
	return out, radix
}
