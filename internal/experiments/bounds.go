package experiments

import (
	"fmt"

	"repro/internal/lowerbound"
	"repro/internal/protocols/crashk"
	"repro/internal/protocols/naive"
)

// e7DetAttack demonstrates Theorem 3.1: at β ≥ 1/2, the
// indistinguishability adversary forces any deterministic protocol that
// queries fewer than L bits to output wrongly, while the naive protocol
// (Q = L) is untouchable.
func e7DetAttack(cfg Config) (*Table, error) {
	t := &Table{
		Columns: []string{"protocol", "seed", "victim-Q(probe)", "L", "outcome"},
		Notes: []string{
			"sub-naive deterministic protocol (crashk misused at β ≥ 1/2): attack must succeed",
			"naive protocol: full coverage, attack impossible — the Q = L bound is tight",
		},
	}
	n, L := 8, 512
	if cfg.Quick {
		L = 128
	}
	for seed := cfg.Seed; seed < cfg.Seed+3; seed++ {
		rep, err := lowerbound.AttackDeterministic(lowerbound.AttackConfig{
			N: n, L: L, Seed: seed, NewPeer: crashk.New,
		})
		if err != nil {
			return nil, err
		}
		outcome := "SURVIVED (unexpected)"
		if rep.Succeeded {
			outcome = "wrong output forced"
		}
		t.AddRow("crashk(sub-naive)", itoa(int(seed)), itoa(rep.ProbeQ), itoa(L), outcome)
	}
	rep, err := lowerbound.AttackDeterministic(lowerbound.AttackConfig{
		N: n, L: L, Seed: cfg.Seed, NewPeer: naive.New,
	})
	if err != nil {
		return nil, err
	}
	outcome := "attack impossible (full coverage)"
	if !rep.FullCoverage {
		outcome = fmt.Sprintf("unexpected: coverage %d < L", rep.VictimQueried)
	}
	t.AddRow("naive", itoa(int(cfg.Seed)), itoa(rep.ProbeQ), itoa(L), outcome)
	return t, nil
}

// e8RandAttack demonstrates Theorem 3.2: the randomized construction's
// empirical success rate against a sub-L/2 protocol approaches
// 1 − q/L, and drops to zero against full-coverage protocols.
func e8RandAttack(cfg Config) (*Table, error) {
	t := &Table{
		Columns: []string{"protocol", "trials", "success-rate", "victim-q/L", "1-q/L"},
		Notes: []string{
			"adversary trains on simulated runs, targets the least-queried bit",
			"success rate tracks 1 − q/L: sub-L/2 protocols must fail on ≥ half the executions",
		},
	}
	n, L := 8, 256
	training, trials := 6, 10
	if cfg.Quick {
		L, training, trials = 128, 3, 4
	}
	reports, err := lowerbound.AttackRandomized(lowerbound.AttackConfig{
		N: n, L: L, Seed: cfg.Seed, NewPeer: crashk.New,
	}, training, trials)
	if err != nil {
		return nil, err
	}
	var avgQ float64
	for _, r := range reports {
		avgQ += float64(r.ProbeQ)
	}
	avgQ /= float64(len(reports))
	qOverL := avgQ / float64(L)
	t.AddRow("crashk(sub-naive)", itoa(trials),
		ftoa(lowerbound.SuccessRate(reports)), ftoa(qOverL), ftoa(1-qOverL))

	reports, err = lowerbound.AttackRandomized(lowerbound.AttackConfig{
		N: n, L: L, Seed: cfg.Seed + 99, NewPeer: naive.New,
	}, training, trials/2)
	if err != nil {
		return nil, err
	}
	t.AddRow("naive", itoa(trials/2),
		ftoa(lowerbound.SuccessRate(reports)), "1.00", "0.00")
	return t, nil
}
