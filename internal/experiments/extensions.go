package experiments

import (
	"fmt"

	"repro/internal/adversary"
	"repro/internal/des"
	"repro/internal/protocols/committee"
	"repro/internal/protocols/crashk"
	"repro/internal/protocols/segproto"
	"repro/internal/protocols/twocycle"
	"repro/internal/sim"
)

// a4Synchrony compares each protocol under synchronous lockstep (all
// latencies exactly 1, simultaneous start — the setting of the prior work
// in the paper's Table 1) against the adversarial asynchronous schedule.
// Query complexity is schedule-independent for the deterministic
// protocols; time stretches under asynchrony by at most the latency
// spread. This is the "Synchrony" column of Table 1 made measurable.
func a4Synchrony(cfg Config) (*Table, error) {
	t := &Table{
		Columns: []string{"protocol", "schedule", "Q", "time", "msgs"},
		Notes: []string{
			"sync = unit latencies & simultaneous start; async = seeded adversarial delays in (0,1] with staggered starts",
		},
	}
	n, L := 64, 1<<13
	if cfg.Quick {
		n, L = 32, 1<<11
	}
	tf := n / 4
	faulty := adversary.SpreadFaulty(n, tf)
	rows := []struct {
		name    string
		factory func(sim.PeerID) sim.Peer
		faults  sim.Faults
	}{
		{"crashk", crashk.NewFast, sim.Faults{Fates: adversary.NewCrashRandom(cfg.Seed, faulty, 20*n)}},
		{"committee", committee.New, byzantine(faulty, committee.NewLiar)},
	}
	for _, r := range rows {
		for _, sched := range []struct {
			name   string
			delays sim.DelayPolicy
		}{
			{"sync", adversary.NewFixed(1.0)},
			{"async", adversary.NewRandomUnit(cfg.Seed + 3)},
		} {
			res, err := cfg.run(Cell{r.name + "-" + sched.name, &sim.Spec{
				Config:  config(cfg.Seed, n, tf, L),
				NewPeer: r.factory,
				Delays:  sched.delays,
				Faults:  r.faults,
			}})
			if err != nil {
				return nil, err
			}
			t.AddRow(r.name, sched.name, itoa(res.Q), ftoa(res.Time), itoa(res.Msgs))
		}
	}
	return t, nil
}

// a5DynamicByzantine stresses the dynamic-corruption model of the
// companion paper: the adversary rotates control through a growing union
// of peers while keeping the number of concurrently corrupted peers
// fixed at t/2. The static analysis only promises tolerance for union ≤ t;
// the experiment measures where the randomized protocol actually stops
// being correct as the union grows past it.
func a5DynamicByzantine(cfg Config) (*Table, error) {
	t := &Table{
		Columns: []string{"union", "concurrent~", "T(bound)", "correct", "Q"},
		Notes: []string{
			"corrupted peers run the colluding liar inside staggered windows, honest outside",
			"union ≤ t is covered by the static analysis; beyond it is the dynamic model's open regime",
		},
	}
	n, L := 128, 1<<12
	if cfg.Quick {
		L = 1 << 11
	}
	tf := n / 4
	for _, union := range []int{tf / 2, tf, 3 * tf / 2} {
		faulty := adversary.SpreadFaulty(n, union)
		windows := make(map[sim.PeerID]adversary.Window, union)
		// Two staggered shifts: halves the concurrent corruption.
		for i, p := range faulty {
			if i%2 == 0 {
				windows[p] = adversary.Window{Start: 0, End: 2}
			} else {
				windows[p] = adversary.Window{Start: 2, End: 6}
			}
		}
		faults := byzantine(faulty, adversary.NewRotating(twocycle.New, segproto.NewColludingLiar, windows))
		faults.AllowExcess = true
		res, err := des.New().Run(&sim.Spec{
			// T stays at the static bound: the protocol's parameters
			// must not know about the dynamic union's size.
			Config:  config(cfg.Seed, n, tf, L),
			NewPeer: twocycle.New,
			Delays:  adversary.NewRandomUnit(cfg.Seed + int64(union)),
			Faults:  faults,
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(itoa(union), itoa((union+1)/2), itoa(tf),
			fmt.Sprintf("%v", res.Correct), itoa(res.Q))
	}
	return t, nil
}
