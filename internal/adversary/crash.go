package adversary

import (
	"math/rand"

	"repro/internal/sim"
)

// NewCrashRandom returns one crash fate per peer, in order, each crashing
// after a point drawn independently and uniformly from [0, max], seeded
// for reproducibility; none rejoins. Mid-broadcast crashes arise
// naturally: a Broadcast of n−1 sends spans n−1 consecutive action counts.
func NewCrashRandom(seed int64, peers []sim.PeerID, max int) []sim.Fate {
	rng := rand.New(rand.NewSource(seed))
	fates := sim.Crashes(peers, 0)
	for i := range fates {
		fates[i].CrashAfter = rng.Intn(max + 1)
	}
	return fates
}
