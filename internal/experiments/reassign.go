package experiments

import (
	"fmt"
	"slices"

	"repro/internal/adversary"
	"repro/internal/protocols/crashk"
	"repro/internal/sim"
)

// a6Reassign ablates the owner function that realizes the paper's
// "reassign the missing peer's bits evenly among all peers"
// (reconstruction #3 in DESIGN.md): a per-(bit, phase) hash versus a
// rotation (x + r·stride) mod n. On the block-structured residual sets
// that crashes at low phase counts produce, both stay balanced; the hash
// is insensitive to the residual set's structure, which is why it is the
// default. The experiment reports max/avg query balance for both.
func a6Reassign(cfg Config) (*Table, error) {
	t := &Table{Columns: []string{"beta", "strategy", "Q(max)", "Q(avg)", "max/avg", "time"}}
	n, L := 32, 1<<15
	if cfg.Quick {
		n, L = 16, 1<<12
	}
	balance := make(map[string][]float64)
	for _, beta := range []float64{0.5, 0.75} {
		tf := int(beta * float64(n))
		faulty := adversary.SpreadFaulty(n, tf)
		for _, strat := range []struct {
			name string
			mode crashk.Reassign
		}{{"hash", crashk.ReassignHash}, {"rotate", crashk.ReassignRotate}} {
			res, err := cfg.run(Cell{fmt.Sprintf("%s-beta=%.2f", strat.name, beta), &sim.Spec{
				Config:  config(cfg.Seed, n, tf, L),
				NewPeer: crashk.NewWithOptions(crashk.Options{Reassign: strat.mode}),
				Delays:  adversary.NewRandomUnit(cfg.Seed + int64(tf)),
				Faults:  crash(faulty, 0),
			}})
			if err != nil {
				return nil, err
			}
			avg := res.AvgQ()
			balance[strat.name] = append(balance[strat.name], float64(res.Q)/avg)
			t.AddRow(ftoa(beta), strat.name, itoa(res.Q), ftoa(avg),
				fratio(float64(res.Q), avg), ftoa(res.Time))
		}
	}
	span := func(v []float64) string {
		if lo, hi := ftoa(slices.Min(v)), ftoa(slices.Max(v)); lo != hi {
			return lo + "–" + hi
		}
		return ftoa(v[0])
	}
	t.Notes = []string{
		"both strategies satisfy Claim 1 by construction (global per-bit owner)",
		fmt.Sprintf("measured max/avg: rotate %s, hash %s, on the block/residue-structured residual sets crashes produce",
			span(balance["rotate"]), span(balance["hash"])),
		"hash stays the default for structure-insensitivity: its balance is oblivious to how the adversary shapes the residual set",
	}
	return t, nil
}
