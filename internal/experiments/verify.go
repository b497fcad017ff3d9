package experiments

import (
	"fmt"
	"strings"

	"repro/internal/explore"
	"repro/internal/protocols/crash1"
	"repro/internal/protocols/crashk"
	"repro/internal/protocols/naive"
	"repro/internal/sim"
)

// a7Exhaustive reports the bounded-exhaustive verification results: for
// tiny configurations, every delivery schedule up to the stated decision
// depth is enumerated and checked. Unlike the statistical experiments,
// these rows are universally quantified — "0 failures" means no schedule
// in the covered tree breaks the protocol, the strongest statement a
// finite harness makes.
func a7Exhaustive(cfg Config) (*Table, error) {
	t := &Table{
		Columns: []string{"protocol", "n", "crash-point", "depth", "schedules",
			"coverage", "failures", "deadlocks"},
		Notes: []string{
			"each row enumerates EVERY delivery order up to the decision depth",
			"the crash1 row family covers the configuration in which schedule fuzzing found the termination deadlock (fixed; see crash1/deadlock_regression_test.go)",
		},
	}
	depth := 6
	budget := 400000
	if cfg.Quick {
		depth = 4
		budget = 50000
	}
	type row struct {
		name    string
		factory func(sim.PeerID) sim.Peer
		n, tf   int
		crash   map[sim.PeerID]int
	}
	rows := []row{
		{"naive", naive.New, 3, 0, nil},
		{"crash1", crash1.New, 3, 1, map[sim.PeerID]int{0: 0}},
		{"crash1", crash1.New, 3, 1, map[sim.PeerID]int{0: 4}},
		{"crash1", crash1.New, 3, 1, map[sim.PeerID]int{0: 8}},
		{"crashk", crashk.New, 3, 1, map[sim.PeerID]int{0: 5}},
		{"crashk", crashk.New, 4, 2, map[sim.PeerID]int{0: 3, 2: 9}},
	}
	for _, r := range rows {
		rep, err := explore.Run(explore.Config{
			N: r.n, T: r.tf, L: 12, Seed: cfg.Seed,
			NewPeer:     r.factory,
			CrashPoints: r.crash,
			MaxChoices:  depth,
			Budget:      budget,
		})
		if err != nil {
			return nil, err
		}
		coverage := "exhaustive"
		if !rep.Exhaustive {
			coverage = "budget-capped"
		}
		var points []string
		for p := sim.PeerID(0); int(p) < r.n; p++ {
			if at, ok := r.crash[p]; ok {
				points = append(points, fmt.Sprintf("p%d@%d", p, at))
			}
		}
		point := strings.Join(points, " ")
		if point == "" {
			point = "-"
		}
		t.AddRow(r.name, itoa(r.n), point, itoa(depth),
			itoa(rep.Executions), coverage, itoa(rep.Failures), itoa(rep.Deadlocks))
		if !rep.Ok() {
			return nil, fmt.Errorf("A7 %s: %v (witness %v)", r.name, rep, rep.FirstBad)
		}
	}
	return t, nil
}
