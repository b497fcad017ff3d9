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
	spec := &runSpec{n: c.N, t: c.T, l: c.L, b: c.MsgBits, seed: c.Seed, newPeer: c.NewPeer}
	if len(c.CrashPoints) > 0 {
		spec.fault = sim.FaultCrash
		spec.crash = c.CrashPoints
		for id := range c.CrashPoints {
			spec.faulty = append(spec.faulty, id)
		}
	}
	out = execute(spec, func(d, fanout int) int {
		if d >= depth {
			return 0
		}
		radix = append(radix, fanout)
		if d < len(prefix) {
			return prefix[d]
		}
		return 0
	})
	return out, radix
}
