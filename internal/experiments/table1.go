package experiments

import (
	"fmt"

	"repro/internal/adversary"
	"repro/internal/protocols/committee"
	"repro/internal/protocols/crash1"
	"repro/internal/protocols/crashk"
	"repro/internal/protocols/multicycle"
	"repro/internal/protocols/naive"
	"repro/internal/protocols/segproto"
	"repro/internal/protocols/twocycle"
	"repro/internal/sim"
	"repro/internal/source"
)

// t1Row is one row of Table 1: the cell that measures it and the columns
// the paper states. The label is display text only; the cell's name
// picks the delay seed and keys the row in internal/regression's
// table1.json, so relabelling a row moves no number.
type t1Row struct {
	label, faultModel, resilience, kind, theory string
	cell                                        Cell
}

// t1Rows builds Table 1 at n = 256, L = 2^14 (the paper's scale) or, for
// a quick run, n = 128, L = 2^12. Every protocol runs under its maximal
// tolerable fault pattern, and each cell's delay seed is seed + len(name).
func t1Rows(cfg Config) []t1Row {
	n, L := 256, 1<<14
	if cfg.Quick {
		n, L = 128, 1<<12
	}
	cell := func(name string, tf int, peer func(sim.PeerID) sim.Peer, faults sim.Faults) Cell {
		return Cell{name, &sim.Spec{
			Config:  config(cfg.Seed, n, tf, L),
			NewPeer: peer,
			Delays:  adversary.NewRandomUnit(cfg.Seed + int64(len(name))),
			Faults:  faults,
		}}
	}
	randomCrash := func(tf int) sim.Faults {
		f := adversary.SpreadFaulty(n, tf)
		return sim.Faults{Fates: adversary.NewCrashRandom(cfg.Seed, f, 20*n)}
	}
	lying := func(tf int, liar func(sim.PeerID, *sim.Knowledge) sim.Peer) sim.Faults {
		return byzantine(adversary.SpreadFaulty(n, tf), liar)
	}
	tQuarter, tHalf, tNineTenths := n/4, n/2, 9*n/10
	// naive-mir re-runs the naive cell, delay seed included, through a
	// Byzantine-majority mirror fleet: 3 of 5 mirrors lie, their replies
	// fail verification and fall back to the source.
	mir := cell("naive", tNineTenths, naive.New, lying(tNineTenths, adversary.NewSilent))
	mir.Name = "naive-mir"
	mir.Spec.Mirrors = &source.MirrorPlan{Mirrors: 5, Byz: 3, Behavior: source.BehaviorMixed, LeafBits: 64, Seed: 9}
	return []t1Row{
		{"naive", "byzantine", "any β < 1", "det", fmt.Sprintf("L = %d", L),
			cell("naive", tNineTenths, naive.New, lying(tNineTenths, adversary.NewSilent))},
		{"crash1 (Thm 2.3)", "crash", "t = 1", "det", fmt.Sprintf("≈ L/n = %d", L/n),
			cell("crash1", 1, crash1.New, randomCrash(1))},
		{"crashk (Thm 2.13)", "crash", "any β < 1", "det", fmt.Sprintf("O(L/n), L/(n−t) = %d", L/(n-tNineTenths)),
			cell("crashk", tNineTenths, crashk.NewFast, randomCrash(tNineTenths))},
		{"committee (Thm 3.4)", "byzantine", "β < 1/2", "det", fmt.Sprintf("L(2t+1)/n = %d", L*(2*tQuarter+1)/n),
			cell("committee", tQuarter, committee.New, lying(tQuarter, committee.NewLiar))},
		{"twocycle (Thm 3.7)", "byzantine", "β < 1/2", "rand", "Õ(L/n) whp",
			cell("twocycle", tQuarter, twocycle.New, lying(tQuarter, segproto.NewColludingLiar))},
		{"multicycle (Thm 3.12)", "byzantine", "β < 1/2", "rand", "Õ(L/n) expected",
			cell("multicycle", tQuarter, multicycle.New, lying(tQuarter, segproto.NewColludingLiar))},
		{"committee@β≥1/2", "byzantine", "β ≥ 1/2 ⇒ Q = L (Thm 3.1)", "det", fmt.Sprintf("L = %d", L),
			cell("committee-majority", tHalf, committee.New, lying(tHalf, adversary.NewSilent))},
		{"naive, 3/5 mirrors lie", "byzantine", "any β < 1", "det", fmt.Sprintf("L = %d", L), mir},
	}
}

// T1Cells returns Table 1's cells, one per row.
func T1Cells(cfg Config) []Cell {
	var cells []Cell
	for _, r := range t1Rows(cfg) {
		cells = append(cells, r.cell)
	}
	return cells
}

// table1 reproduces the paper's Table 1 — the protocol comparison — with
// measured numbers: every implemented protocol runs at a common scale
// under its maximal tolerable fault pattern, reporting measured Q next to
// the theoretical bound, fault model, resilience, and protocol type.
// (The prior-work synchronous rows of the paper's table are represented
// by our asynchronous adaptations: the committee protocol is [3]'s
// deterministic construction adapted per Theorem 3.4, and the 2-cycle /
// multi-cycle protocols are [4]'s randomized protocols adapted per
// Theorems 3.7/3.12.)
func table1(cfg Config) (*Table, error) {
	t := &Table{
		Columns: []string{"protocol", "fault model", "resilience", "type",
			"Q(measured)", "Q(theory)", "time", "msgs"},
	}
	rows := t1Rows(cfg)
	for _, r := range rows {
		res, err := cfg.run(r.cell)
		if err != nil {
			return nil, err
		}
		t.AddRow(r.label, r.faultModel, r.resilience, r.kind,
			itoa(res.Q), r.theory, ftoa(res.Time), itoa(res.Msgs))
	}
	shape := rows[0].cell.Spec.Config
	t.Notes = append(t.Notes,
		fmt.Sprintf("n = %d, L = %d, b = %d; all runs seeded and adversarial", shape.N, shape.L, shape.MsgBits),
		"shapes to check: crash protocols at O(L/n) for any β; committee at ≈2βL; randomized at Õ(L/n); β ≥ 1/2 forces L")
	return t, nil
}
