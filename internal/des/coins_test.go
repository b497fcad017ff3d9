package des_test

import (
	"math/rand"
	"testing"

	"repro/internal/adversary"
	"repro/internal/bitarray"
	"repro/internal/des"
	"repro/internal/protocols/crash1"
	"repro/internal/protocols/crashk"
	"repro/internal/protocols/naive"
	"repro/internal/protocols/twocycle"
	"repro/internal/sim"
)

// A peer's random stream is built at its first Rand call: a protocol that
// never draws builds none, and one that does gets the stream it always got.

func TestCoinsOnlyWhereDrawn(t *testing.T) {
	crash := func(n, tf int) sim.Faults {
		f := adversary.SpreadFaulty(n, tf)
		return sim.Faults{Fates: adversary.NewCrashRandom(9, f, 80)}
	}
	cells := []struct {
		name  string
		spec  *sim.Spec
		coins int
	}{
		{"committee", committeeSpec(), 0},
		{"crashk", &sim.Spec{
			Config:  sim.Config{N: 16, T: 4, L: 1024, MsgBits: 128, Seed: 9},
			NewPeer: crashk.New, Delays: adversary.NewRandomUnit(9), Faults: crash(16, 4),
		}, 0},
		{"naive", &sim.Spec{
			Config:  sim.Config{N: 6, L: 512, MsgBits: 128, Seed: 9},
			NewPeer: naive.New, Delays: adversary.NewRandomUnit(9),
		}, 0},
		{"crash1", &sim.Spec{
			Config:  sim.Config{N: 8, T: 1, L: 1024, MsgBits: 128, Seed: 9},
			NewPeer: crash1.New, Delays: adversary.NewRandomUnit(9), Faults: crash(8, 1),
		}, 0},
		{"twocycle", &sim.Spec{
			Config:  sim.Config{N: 128, T: 16, L: 4096, MsgBits: 128, Seed: 9},
			NewPeer: twocycle.New, Delays: adversary.NewRandomUnit(9),
		}, 128},
	}
	for _, c := range cells {
		res, coins := des.RunCountingCoins(c.spec)
		if !res.Correct {
			t.Errorf("%s: incorrect: %v", c.name, res.Failures)
		}
		if coins != c.coins {
			t.Errorf("%s: %d peers built a random stream, want %d", c.name, coins, c.coins)
		}
	}
}

// coinPeer logs every draw from its stream: even ids draw at start, odd ids
// at their first message, so the order of draws across peers follows the
// delay policy. It broadcasts at start and terminates once it has heard
// from every other peer.
type coinPeer struct {
	ctx   sim.Context
	draws map[sim.PeerID][]int64
	heard map[sim.PeerID]bool
}

func coinPeers(draws map[sim.PeerID][]int64) func(sim.PeerID) sim.Peer {
	return func(sim.PeerID) sim.Peer { return &coinPeer{draws: draws, heard: map[sim.PeerID]bool{}} }
}

func (c *coinPeer) draw() {
	id := c.ctx.ID()
	c.draws[id] = append(c.draws[id], c.ctx.Rand().Int63())
}

func (c *coinPeer) Init(ctx sim.Context) {
	c.ctx = ctx
	if ctx.ID()%2 == 0 {
		c.draw()
	}
	ctx.Broadcast(&ping{bits: 8})
}

func (c *coinPeer) OnMessage(from sim.PeerID, _ sim.Message) {
	if len(c.heard) == 0 && c.ctx.ID()%2 == 1 {
		c.draw()
	}
	c.heard[from] = true
	if len(c.heard) == c.ctx.N()-1 {
		c.ctx.Output(bitarray.New(c.ctx.L()))
		c.ctx.Terminate()
	}
}

func (c *coinPeer) OnQueryReply(sim.QueryReply) {}

// checkStreams asserts that each peer's draws are its stream's first
// values, the stream seeded from (Seed, id).
func checkStreams(t *testing.T, name string, seed int64, draws map[sim.PeerID][]int64, n int) {
	t.Helper()
	if len(draws) != n {
		t.Errorf("%s: %d of %d peers drew", name, len(draws), n)
	}
	for id, got := range draws {
		want := rand.New(rand.NewSource(seed + int64(id)*0x9e3779b97f4a7c + 1))
		for k, v := range got {
			if w := want.Int63(); v != w {
				t.Errorf("%s: peer %d draw %d = %d, want %d", name, id, k, v, w)
			}
		}
	}
}

func TestCoinFirstDrawIsSeeded(t *testing.T) {
	const n, seed = 8, 41
	for name, delays := range map[string]sim.DelayPolicy{
		"random-unit": adversary.NewRandomUnit(seed),
		"slow-to-0":   toPeerDelay{slow: 4, fast: 1},
	} {
		draws := map[sim.PeerID][]int64{}
		res, err := des.New().Run(&sim.Spec{
			Config:  sim.Config{N: n, L: 8, MsgBits: 64, Seed: seed, Input: bitarray.New(8)},
			NewPeer: coinPeers(draws),
			Delays:  delays,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Fatalf("%s: incorrect: %v", name, res.Failures)
		}
		checkStreams(t, name, seed, draws, n)
	}
}

// A churn peer's rejoined instance continues the stream the crashed one
// drew from; it does not start it again.
func TestCoinStreamSurvivesRejoin(t *testing.T) {
	const n, seed = 6, 43
	draws := map[sim.PeerID][]int64{}
	res, err := des.New().Run(&sim.Spec{
		Config:  sim.Config{N: n, T: 1, L: 8, MsgBits: 64, Seed: seed, Input: bitarray.New(8)},
		NewPeer: coinPeers(draws),
		Delays:  adversary.NewFixed(1),
		// Peer 2 draws at start, crashes two sends into its broadcast and
		// draws again when it rejoins.
		Faults: sim.Faults{Fates: []sim.Fate{{Peer: 2, CrashAfter: 3, Downtime: 1}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.PerPeer[2].Rejoined {
		t.Fatal("peer 2 did not rejoin")
	}
	if len(draws[2]) != 2 {
		t.Fatalf("peer 2 drew %d times, want once per instance", len(draws[2]))
	}
	checkStreams(t, "churn", seed, draws, n)
}
