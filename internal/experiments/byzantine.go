package experiments

import (
	"fmt"
	"strings"

	"repro/internal/adversary"
	"repro/internal/des"
	"repro/internal/protocols"
	"repro/internal/protocols/committee"
	"repro/internal/protocols/multicycle"
	"repro/internal/protocols/naive"
	"repro/internal/protocols/segproto"
	"repro/internal/protocols/twocycle"
	"repro/internal/sim"
	"repro/internal/stats"
)

// E4Cells sweeps β < 1/2 for the committee protocol against the
// consistent-lie attack.
func E4Cells(cfg Config) []Cell {
	n, L := 32, 1<<14
	if cfg.Quick {
		n, L = 16, 1<<11
	}
	var cells []Cell
	for _, beta := range []float64{0.0, 0.1, 0.2, 0.3, 0.4, 0.45} {
		tf := int(beta * float64(n))
		cells = append(cells, Cell{fmt.Sprintf("beta=%.2f", beta), &sim.Spec{
			Config:  config(cfg.Seed, n, tf, L),
			NewPeer: committee.New,
			Delays:  adversary.NewRandomUnit(cfg.Seed + int64(tf)),
			Faults:  byzantine(adversary.SpreadFaulty(n, tf), committee.NewLiar),
		}})
	}
	return cells
}

// e4Committee sweeps β < 1/2 for the deterministic committee protocol
// (Theorem 3.4). Series: Q = L(2t+1)/n grows linearly in β·L, against
// the strongest consistent-lie attack.
func e4Committee(cfg Config) (*Table, error) {
	t := &Table{
		Columns: []string{"beta", "n", "t", "Q", "L(2t+1)/n", "Q/naive", "time"},
		Notes:   []string{"faulty peers run the consistent-lie attack"},
	}
	for _, c := range E4Cells(cfg) {
		res, err := cfg.run(c)
		if err != nil {
			return nil, err
		}
		n, tf, L := c.Spec.Config.N, c.Spec.Config.T, c.Spec.Config.L
		t.AddRow(strings.TrimPrefix(c.Name, "beta="), itoa(n), itoa(tf), itoa(res.Q),
			itoa(L*committee.CommitteeSize(tf)/n), fratio(float64(res.Q), float64(L)), ftoa(res.Time))
	}
	return t, nil
}

// E5Cells sweeps L at β = 1/4 against colluding liars: for each L the
// 2-cycle protocol, then the committee protocol.
func E5Cells(cfg Config) []Cell {
	n, Ls := 256, []int{1 << 10, 1 << 12, 1 << 14, 1 << 16}
	if cfg.Quick {
		n, Ls = 128, []int{1 << 10, 1 << 12}
	}
	tf := n / 4
	faulty := adversary.SpreadFaulty(n, tf)
	var cells []Cell
	for _, L := range Ls {
		cells = append(cells,
			Cell{fmt.Sprintf("twocycle-L=%d", L), &sim.Spec{
				Config:  config(cfg.Seed, n, tf, L),
				NewPeer: twocycle.New,
				Delays:  adversary.NewRandomUnit(cfg.Seed + int64(L)),
				Faults:  byzantine(faulty, segproto.NewColludingLiar),
			}},
			Cell{fmt.Sprintf("committee-L=%d", L), &sim.Spec{
				Config:  config(cfg.Seed, n, tf, L),
				NewPeer: committee.New,
				Delays:  adversary.NewRandomUnit(cfg.Seed + int64(L) + 1),
				Faults:  byzantine(faulty, committee.NewLiar),
			}})
	}
	return cells
}

// e5TwoCycle sweeps L for the 2-cycle randomized protocol against the
// committee and naive baselines (Theorems 3.4/3.7). Series: the
// randomized protocol's Q grows like Õ(L/n) and crosses below the
// deterministic committee cost (≈ 2βL) as L grows — randomization beats
// determinism at scale, the gap the paper's Table 1 displays.
func e5TwoCycle(cfg Config) (*Table, error) {
	t := &Table{
		Columns: []string{"L", "Q(twocycle)", "Q(committee)", "Q(naive)",
			"two/committee", "params"},
		Notes: []string{
			"n fixed; Byzantine peers collude on a forged k-frequent string",
			"crossover: randomized wins once L ≫ n — Table 1's randomized-vs-deterministic gap",
		},
	}
	cells := E5Cells(cfg)
	for i := 0; i < len(cells); i += 2 {
		two, err := cfg.run(cells[i])
		if err != nil {
			return nil, err
		}
		com, err := cfg.run(cells[i+1])
		if err != nil {
			return nil, err
		}
		n, tf, L := cells[i].Spec.Config.N, cells[i].Spec.Config.T, cells[i].Spec.Config.L
		p := segproto.Derive(n, tf, L)
		params := "naive-regime"
		if !p.Naive {
			params = fmt.Sprintf("m=%d k=%d", p.Segments, p.Threshold(p.Segments))
		}
		t.AddRow(itoa(L), itoa(two.Q), itoa(com.Q), itoa(L),
			fratio(float64(two.Q), float64(com.Q)), params)
	}
	return t, nil
}

// e6Protocols are E6's rows, each run over E6's seeds.
var e6Protocols = []struct {
	name    string
	factory func(sim.PeerID) sim.Peer
}{
	{"twocycle", twocycle.New},
	{"multicycle", multicycle.New},
	{"naive", naive.New},
}

// E6Cells runs each of e6Protocols over consecutive seeds (5, or 2 when
// quick) against silent Byzantine peers.
func E6Cells(cfg Config) []Cell {
	n, L, seeds := 256, 1<<14, 5
	if cfg.Quick {
		n, L, seeds = 128, 1<<12, 2
	}
	tf := n / 4
	faulty := adversary.SpreadFaulty(n, tf)
	var cells []Cell
	for _, p := range e6Protocols {
		for s := 0; s < seeds; s++ {
			cells = append(cells, Cell{fmt.Sprintf("%s-s%d", p.name, s), &sim.Spec{
				Config:  config(cfg.Seed+int64(s), n, tf, L),
				NewPeer: p.factory,
				Delays:  adversary.NewRandomUnit(cfg.Seed + int64(s)*31),
				Faults:  byzantine(faulty, adversary.NewSilent),
			}})
		}
	}
	return cells
}

// e6MultiCycle compares the multi-cycle protocol's expected cost with the
// 2-cycle protocol and naive across seeds (Theorem 3.12). Series: the
// multi-cycle average stays comparable while its messages grow with the
// doubling segments.
func e6MultiCycle(cfg Config) (*Table, error) {
	t := &Table{
		Columns: []string{"protocol", "avgQ (mean ± std)", "maxQ(worst seed)", "msgs(mean)", "time(mean)"},
		Notes:   []string{"n, L fixed; silent Byzantine faults; per-seed statistics"},
	}
	cells := E6Cells(cfg)
	seeds := len(cells) / len(e6Protocols)
	for k, p := range e6Protocols {
		var avgQ, msgs, times stats.Sample
		maxQ := 0
		for _, c := range cells[k*seeds : (k+1)*seeds] {
			res, err := cfg.run(c)
			if err != nil {
				return nil, err
			}
			avgQ.Add(res.AvgQ())
			maxQ = max(maxQ, res.Q)
			msgs.AddInt(res.Msgs)
			times.Add(res.Time)
		}
		t.AddRow(p.name,
			fmt.Sprintf("%.1f ± %.1f", avgQ.Mean(), avgQ.Std()),
			itoa(maxQ), ftoa(msgs.Mean()), ftoa(times.Mean()))
	}
	return t, nil
}

// a1Threshold sweeps the 2-cycle frequency threshold k: too low admits
// more forged candidates (higher determine cost), too high empties
// candidate sets (direct-query fallback). The derived k sits in the
// efficient valley.
func a1Threshold(cfg Config) (*Table, error) {
	t := &Table{Columns: []string{"k", "Q", "correct", "note"}}
	n, L := 256, 1<<14
	if cfg.Quick {
		n, L = 128, 1<<12
	}
	tf := n / 4
	faulty := adversary.SpreadFaulty(n, tf)
	p := segproto.Derive(n, tf, L)
	if p.Naive {
		t.Notes = append(t.Notes, "parameters degenerate at this scale; no sweep")
		return t, nil
	}
	derived := p.Threshold(p.Segments)
	for _, k := range []int{1, derived / 2, derived, derived * 2, derived * 8} {
		if k < 1 {
			continue
		}
		note := ""
		if k == derived {
			note = "derived k"
		}
		res, err := des.New().Run(&sim.Spec{
			Config:  config(cfg.Seed, n, tf, L),
			NewPeer: twocycle.NewWithOptions(twocycle.Options{ForceThreshold: k}),
			Delays:  adversary.NewRandomUnit(cfg.Seed + int64(k)),
			Faults:  byzantine(faulty, segproto.NewColludingLiar),
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(itoa(k), itoa(res.Q), fmt.Sprintf("%v", res.Correct), note)
	}
	return t, nil
}

// a2Adversaries runs each Byzantine-tolerant protocol against every
// adversary strategy, reporting Q and correctness — the robustness grid.
func a2Adversaries(cfg Config) (*Table, error) {
	t := &Table{Columns: []string{"protocol", "adversary", "Q", "correct", "time"}}
	n, L := 256, 1<<13
	if cfg.Quick {
		n, L = 128, 1<<11
	}
	tf := n / 4
	faulty := adversary.SpreadFaulty(n, tf)
	for _, proto := range []string{"committee", "twocycle", "multicycle"} {
		p, err := protocols.Lookup(proto)
		if err != nil {
			return nil, err
		}
		strategies := map[string]func(sim.PeerID, *sim.Knowledge) sim.Peer{
			"silent":  adversary.NewSilent,
			"spammer": adversary.NewSpammer(6, 512),
			"echo":    adversary.NewEcho(6),
			"liar":    p.Liar,
		}
		for _, name := range []string{"silent", "spammer", "echo", "liar"} {
			res, err := des.New().Run(&sim.Spec{
				Config:  config(cfg.Seed, n, tf, L),
				NewPeer: p.New,
				Delays:  adversary.NewRandomUnit(cfg.Seed + int64(len(name))),
				Faults:  byzantine(faulty, strategies[name]),
			})
			if err != nil {
				return nil, err
			}
			t.AddRow(p.Name, name, itoa(res.Q), fmt.Sprintf("%v", res.Correct), ftoa(res.Time))
		}
	}
	return t, nil
}
