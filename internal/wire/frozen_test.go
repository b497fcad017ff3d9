package wire_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/adversary"
	"repro/internal/des"
	"repro/internal/protocols/committee"
	"repro/internal/protocols/crash1"
	"repro/internal/protocols/crashk"
	"repro/internal/protocols/multicycle"
	"repro/internal/protocols/naive"
	"repro/internal/protocols/twocycle"
	"repro/internal/sim"
	"repro/internal/testutil"
	"repro/internal/wire"
)

// freezer records the encoding of every message at its first send, to
// compare with the message's encoding once the run is over.
type freezer struct {
	t     *testing.T
	msgs  []sim.Message
	bytes [][]byte
	seen  map[sim.Message]bool
}

func (f *freezer) OnEvent(ev sim.ObservedEvent) {
	if ev.Kind != "send" || f.seen[ev.Msg] {
		return
	}
	raw, err := wire.Marshal(ev.Msg)
	if err != nil {
		f.t.Fatalf("peer %d sent %T: %v", ev.Peer, ev.Msg, err)
	}
	f.seen[ev.Msg] = true
	f.msgs, f.bytes = append(f.msgs, ev.Msg), append(f.bytes, raw)
}

// TestSentMessagesStayFrozen: des shares a sent message by pointer between
// its recipients, so nothing may write it after the send (MODEL.md,
// "Ownership of what is delivered"). Every protocol's every message must
// encode at the end of its run as it did when it was sent. crashk's
// stage-1 requests are its phase's partition, which stage 3 reads again
// to ask about silent peers. Its cells run a crash majority, once from the
// start and once at random points with three honest peers slowed down: a
// slow peer's late answers teach bits in later phases, so stage 3 narrows
// the shares it asks about.
func TestSentMessagesStayFrozen(t *testing.T) {
	crashes := func(n, t int, random bool) sim.Faults {
		faulty := adversary.SpreadFaulty(n, t)
		if random {
			return sim.Faults{Fates: adversary.NewCrashRandom(1, faulty, 40*n)}
		}
		return sim.Faults{Fates: sim.Crashes(faulty, 0)}
	}
	cases := []testutil.Case{
		{Name: "naive", N: 8, T: 5, L: 512, NewPeer: naive.New, Faults: crashes(8, 5, false)},
		{Name: "crash1", N: 8, T: 1, L: 512, NewPeer: crash1.New, Faults: crashes(8, 1, true)},
		{Name: "committee", N: 8, T: 2, L: 512, NewPeer: committee.New, Faults: crashes(8, 2, false)},
		{Name: "twocycle", N: 64, T: 4, L: 1024, NewPeer: twocycle.New, Faults: crashes(64, 4, true)},
		{Name: "multicycle", N: 64, T: 4, L: 1024, NewPeer: multicycle.New, Faults: crashes(64, 4, true)},
	}
	for _, fast := range []bool{false, true} {
		peer := crashk.NewWithOptions(crashk.Options{Fast: fast})
		cases = append(cases, testutil.Case{
			Name: fmt.Sprintf("crashk fast=%v", fast), N: 8, T: 5, L: 512,
			NewPeer: peer, Faults: crashes(8, 5, false),
		})
		slowed := crashes(16, 10, true)
		var slow []sim.PeerID // the first three honest peers
		for id, f := sim.PeerID(0), slowed.Fates; len(slow) < 3; id++ {
			if len(f) > 0 && f[0].Peer == id {
				f = f[1:]
				continue
			}
			slow = append(slow, id)
		}
		cases = append(cases, testutil.Case{
			Name: fmt.Sprintf("crashk fast=%v slowed", fast), N: 16, T: 10, L: 1000,
			NewPeer: peer, Faults: slowed,
			Delays: adversary.NewTargetedSlow(adversary.NewRandomUnit(1), slow, 10),
		})
	}
	for _, c := range cases {
		for seed := int64(1); seed <= 3; seed++ {
			c.Seed = seed
			spec := c.Spec()
			f := &freezer{t: t, seen: make(map[sim.Message]bool)}
			spec.Observer = f
			res, err := des.New().Run(spec)
			if err != nil {
				t.Fatalf("%s seed %d: %v", c.Name, seed, err)
			}
			if !res.Correct {
				t.Fatalf("%s seed %d: incorrect run: %v", c.Name, seed, res)
			}
			for i, m := range f.msgs {
				raw, err := wire.Marshal(m)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(raw, f.bytes[i]) {
					t.Fatalf("%s seed %d: the %T sent %d-th changed after its send:\n%x\nnow\n%x",
						c.Name, seed, m, i, f.bytes[i], raw)
				}
			}
			if c.Name != "naive" && len(f.msgs) == 0 {
				t.Fatalf("%s seed %d: no message sent", c.Name, seed)
			}
		}
	}
}
